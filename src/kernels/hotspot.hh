/**
 * @file
 * HotSpot workload: iterative 2D thermal stencil, the paper's
 * representative of Structured Grid / stencil codes (Table I:
 * memory-bound, balanced, regular; single precision; highest
 * occupancy of the tested codes).
 *
 * Each iteration relaxes the on-chip temperature toward an
 * equilibrium driven by the power map and ambient coupling. This is
 * precisely why the paper finds HotSpot the most naturally resilient
 * code: an injected perturbation diffuses to neighbours (growing the
 * corrupted-element count, always as line/square patterns) while its
 * magnitude decays (mean relative error below 25%, and 80-95% of
 * faulty runs fall entirely under the 2% filter).
 *
 * Injection replays the computation from the closest golden
 * checkpoint, applies the corruption at the struck iteration, and
 * lets the *real stencil dynamics* propagate it to the final output.
 * Once no corruption is left to apply, the replay steps only where
 * the strike can still matter (a dirty-box replay):
 *
 *  - At each golden checkpoint, the replay byte-compares its state
 *    with the checkpoint and takes the bounding box D of the cells
 *    that differ. An empty D means the state has diffused back to
 *    bitwise golden: the replay stops with an empty (masked) record.
 *  - Otherwise the next window of k iterations (k is the checkpoint
 *    interval, or what is left of the run) steps only the box D
 *    grown by 2k-1, 2k-2, ..., k cells, clamped to the grid, and
 *    reads the cells outside D from the checkpoint.
 *
 * This is exact, not an approximation: a cell's value after k steps
 * depends only on the cells within k of it, so every cell outside
 * D+k ends the window bitwise equal to the golden run, and every
 * cell inside D+k is computed from a correct state by the same
 * per-cell expression as the full-grid step. The final diff scans
 * only D+k, in row-major order, so the record is the one a
 * full-grid replay makes. The checkpoints are the only golden state
 * the replay reads (DESIGN.md, "Why no per-step golden frames").
 *
 * Numeric-range note (see DESIGN.md): upsets that push the state far
 * outside the solver's range produce NaN/Inf cascades that are
 * detectable (and counted as crashes by the outcome model), so
 * SDC-visible bit flips are restricted to bounded-excursion bit
 * positions.
 */

#ifndef RADCRIT_KERNELS_HOTSPOT_HH
#define RADCRIT_KERNELS_HOTSPOT_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "obs/timer.hh"
#include "sim/workload.hh"

namespace radcrit
{

/**
 * HotSpot thermal stencil with injection hooks.
 */
class HotSpot : public Workload
{
  public:
    /**
     * @param device Device the workload is bound to.
     * @param grid Scaled grid side (multiple of tile, >= 64).
     * @param iterations Stencil iterations (default 192).
     * @param seed Input-generation seed.
     * @param paper_scale Paper grid side = grid * paper_scale.
     */
    HotSpot(const DeviceModel &device, int64_t grid,
            int64_t iterations = 192, uint64_t seed = 42,
            int64_t paper_scale = 4);

    const std::string &name() const override { return traits_.name; }
    std::string inputLabel() const override;
    const WorkloadTraits &traits() const override { return traits_; }
    SdcRecord inject(const Strike &strike, Rng &rng) override;
    SdcRecord emptyRecord() const override;
    std::unique_ptr<Workload> clone() const override
    {
        // Clones share the checkpoint stack (the dominant buffer)
        // immutably; everything else is copied.
        return std::make_unique<HotSpot>(*this);
    }

    /** @return scaled grid side. */
    int64_t grid() const { return n_; }

    /** @return iteration count. */
    int64_t iterations() const { return iters_; }

    /**
     * The input label and launch traits of a grid-side workload,
     * as inputLabel() and traits() report them, without running
     * the golden simulation.
     */
    static std::string labelFor(int64_t grid, int64_t paper_scale = 4);
    static WorkloadTraits traitsFor(const DeviceModel &device,
                                    int64_t grid,
                                    int64_t iterations = 192,
                                    int64_t paper_scale = 4);

    /** @return golden final temperature field (row-major). */
    const std::vector<float> &goldenTemp() const { return golden_; }

    /** @return per-cell power map input (row-major). */
    const std::vector<float> &power() const { return power_; }

    /** Block tile side. */
    static constexpr int64_t tile = 16;
    /** Ambient temperature (K). */
    static constexpr float ambient = 300.0f;

    /** Half-open cell box: rows [r0, r1), columns [c0, c1). */
    struct Box
    {
        int64_t r0 = 0, r1 = 0, c0 = 0, c1 = 0;

        bool empty() const { return r0 >= r1 || c0 >= c1; }
        int64_t cells() const
        {
            return empty() ? 0 : (r1 - r0) * (c1 - c0);
        }
    };

    /**
     * One stencil iteration over `box`: writes the cells of `dst`
     * inside `box` from `src` inside `box` grown by one cell (both
     * n x n); `dst` outside `box` is left untouched.
     */
    void step(const std::vector<float> &src, std::vector<float> &dst,
              const Box &box) const;

    /**
     * One stencil iteration over the whole grid. Exposed for tests
     * and the entropy-detector study.
     */
    void step(const std::vector<float> &src,
              std::vector<float> &dst) const
    {
        step(src, dst, {0, n_, 0, n_});
    }

  private:
    /**
     * Corruption hook applied at the start of each struck iteration.
     */
    using Corruptor =
        std::function<void(std::vector<float> &state,
                           int64_t iter)>;

    /**
     * Replay from the closest checkpoint, applying `corrupt` at the
     * start of iterations [it0, it0 + persist), then run to the
     * end and diff against the golden output. After the last
     * corrupted iteration each checkpoint window steps only the
     * dirty box (file comment); the replay stops early, leaving
     * `out` empty, when the state matches a golden checkpoint
     * bitwise.
     */
    void runWithCorruption(int64_t it0, int64_t persist,
                           const Corruptor &corrupt,
                           SdcRecord &out) const;

    int64_t strikeIteration(const Strike &strike) const;

    void injectValueFlip(const Strike &strike, Rng &rng,
                         SdcRecord &out) const;
    void injectInputLineFlip(const Strike &strike, Rng &rng,
                             SdcRecord &out) const;
    void injectWrongOperation(const Strike &strike, Rng &rng,
                              SdcRecord &out) const;
    void injectSkippedChunk(const Strike &strike, Rng &rng,
                            SdcRecord &out) const;
    void injectStaleData(const Strike &strike, Rng &rng,
                         SdcRecord &out) const;
    void injectMisscheduledBlock(const Strike &strike, Rng &rng,
                                 SdcRecord &out) const;

    DeviceModel device_;
    int64_t n_;
    int64_t iters_;
    int64_t paperScale_;
    int64_t snapInterval_;
    WorkloadTraits traits_;
    std::vector<float> power_;
    std::vector<float> tempInit_;
    std::vector<float> golden_;
    /**
     * Golden checkpoints every snapInterval_ iterations, immutable
     * after construction and shared between clones.
     */
    std::shared_ptr<const std::vector<std::vector<float>>> snaps_;
    /** Injection-replay latency telemetry. */
    PhaseTimer injectTimer_{StatsRegistry::global(),
                            "kernel.hotspot.inject"};
    /** Replays stopped early because the state reconverged. */
    Counter &reconverged_{StatsRegistry::global().counter(
        "kernel.hotspot.reconverged")};
    /** Cells stepped by injection replays, one bump per replay. */
    Counter &cellSteps_{StatsRegistry::global().counter(
        "kernel.hotspot.cell_steps")};
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_HOTSPOT_HH
