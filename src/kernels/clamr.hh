/**
 * @file
 * CLAMR workload: shallow-water fluid dynamics with cell-based AMR,
 * the paper's representative of DOE production fluid codes (Table I:
 * CPU-bound, imbalanced, irregular access).
 *
 * The solver integrates the 2D shallow-water equations
 * (conservation of mass and x/y momentum, flat bottom, negligible
 * vertical flow) with a second-order MUSCL finite-volume scheme
 * (minmod-limited reconstruction, Rusanov interface fluxes) on the
 * circular dam-break test problem. The flux form conserves total
 * mass exactly (up to FP rounding), which is the paper's criticality
 * story for CLAMR: a radiation-induced perturbation changes the
 * conserved invariant, so "the error will keep affecting the
 * solution" and spreads as a wave (Figs. 8 and 9) — and conversely a
 * total-mass check detects most strikes (ref. [4]: 82% coverage).
 *
 * The AMR layer (AmrMap) tracks which cells a cell-based AMR would
 * refine; per-step thread counts and control-resource stress derive
 * from it, while the wave dynamics run on the fully refined grid
 * (substitution documented in DESIGN.md).
 */

#ifndef RADCRIT_KERNELS_CLAMR_HH
#define RADCRIT_KERNELS_CLAMR_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "kernels/amr.hh"
#include "obs/timer.hh"
#include "sim/workload.hh"

namespace radcrit
{

/** Shallow-water state: height and momenta per cell (row-major). */
struct SweState
{
    std::vector<double> h;
    std::vector<double> hu;
    std::vector<double> hv;

    /** Resize all fields to n*n cells. */
    void resize(size_t cells);
};

/**
 * CLAMR shallow-water solver with injection hooks.
 */
class Clamr : public Workload
{
  public:
    /**
     * @param device Device the workload is bound to.
     * @param grid Scaled grid side (multiple of 8, >= 64).
     * @param steps Time steps (default 512).
     * @param seed Input-generation seed (dam-break perturbations).
     * @param paper_scale Paper grid side = grid * paper_scale.
     */
    Clamr(const DeviceModel &device, int64_t grid,
          int64_t steps = 512, uint64_t seed = 42,
          int64_t paper_scale = 4);

    const std::string &name() const override { return traits_.name; }
    std::string inputLabel() const override;
    const WorkloadTraits &traits() const override { return traits_; }
    SdcRecord inject(const Strike &strike, Rng &rng) override;
    SdcRecord emptyRecord() const override;
    std::unique_ptr<Workload> clone() const override
    {
        // Clones share the checkpoint stack immutably; lastMass_
        // and the scratch state stay private per clone.
        return std::make_unique<Clamr>(*this);
    }

    /** @return scaled grid side. */
    int64_t grid() const { return n_; }

    /** @return time-step count. */
    int64_t steps() const { return steps_; }

    /**
     * The input label of a grid-side workload, as inputLabel()
     * reports it. Unlike the other kernels' traits, CLAMR's launch
     * traits come from the AMR series of its golden run, so only
     * the label is available without building the workload.
     */
    static std::string labelFor(int64_t grid, int64_t paper_scale = 4);

    /** @return golden final height field. */
    const std::vector<double> &goldenH() const
    {
        return golden_.h;
    }

    /** @return time step (cell widths are 1). */
    double dt() const { return dt_; }

    /** @return total mass of the golden final state. */
    double goldenMass() const { return goldenMass_; }

    /**
     * @return total mass of the corrupted final state produced by
     * the most recent inject() call (the mass-check detector input).
     */
    double lastInjectedMass() const { return lastMass_; }

    /** Total mass (sum of heights) of a state. */
    static double mass(const SweState &state);

    /**
     * One MUSCL/Rusanov time step: reads src, writes dst (resized
     * to match src). Exposed for tests (conservation, symmetry) and
     * the AMR thread-count study.
     */
    void step(const SweState &src, SweState &dst) const;

    /**
     * The part of step() that writes dst rows [r0, r1): the X sweep
     * of those rows and the Y sweep of interfaces r0..r1. dst must
     * already match src in size. Calls over disjoint bands may run
     * concurrently, and the bands of any split of [0, grid())
     * together write exactly the bits step() writes.
     */
    void stepRows(const SweState &src, SweState &dst, int64_t r0,
                  int64_t r1) const;

    /**
     * Effective AMR cell counts sampled along the golden run (one
     * entry per checkpoint), showing the thread-count variation the
     * paper attributes CLAMR's control-resource stress to.
     */
    const std::vector<uint64_t> &amrCellSeries() const
    {
        return amrSeries_;
    }

    /** Gravity constant. */
    static constexpr double g = 9.8;
    /** Work tile side used by block-level manifestations. */
    static constexpr int64_t tile = 8;

  private:
    using Corruptor =
        std::function<void(SweState &state, int64_t step)>;

    void runWithCorruption(int64_t it0, int64_t persist,
                           const Corruptor &corrupt,
                           SdcRecord &out);

    int64_t strikeStep(const Strike &strike) const;

    void injectValueFlip(const Strike &strike, Rng &rng,
                         SdcRecord &out);
    void injectInputLineFlip(const Strike &strike, Rng &rng,
                             SdcRecord &out);
    void injectWrongOperation(const Strike &strike, Rng &rng,
                              SdcRecord &out);
    void injectSkippedChunk(const Strike &strike, Rng &rng,
                            SdcRecord &out);
    void injectStaleData(const Strike &strike, Rng &rng,
                         SdcRecord &out);
    void injectMisscheduledBlock(const Strike &strike, Rng &rng,
                                 SdcRecord &out);

    DeviceModel device_;
    int64_t n_;
    int64_t steps_;
    int64_t paperScale_;
    int64_t snapInterval_;
    double dt_ = 0.025;
    WorkloadTraits traits_;
    SweState init_;
    SweState golden_;
    double goldenMass_ = 0.0;
    double lastMass_ = 0.0;
    /**
     * Golden checkpoints every snapInterval_ steps, immutable
     * after construction and shared between clones.
     */
    std::shared_ptr<const std::vector<SweState>> snaps_;
    std::vector<uint64_t> amrSeries_;
    /** Injection-replay latency telemetry. */
    PhaseTimer injectTimer_{StatsRegistry::global(),
                            "kernel.clamr.inject"};
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_CLAMR_HH
