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
 * A replay whose state has diffused back to bitwise golden at a
 * later checkpoint stops there with an empty (masked) record.
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

    const std::string &name() const override { return name_; }
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

    /** @return golden final temperature field (row-major). */
    const std::vector<float> &goldenTemp() const { return golden_; }

    /** @return per-cell power map input (row-major). */
    const std::vector<float> &power() const { return power_; }

    /** Block tile side. */
    static constexpr int64_t tile = 16;
    /** Ambient temperature (K). */
    static constexpr float ambient = 300.0f;

    /**
     * One stencil iteration: reads `src`, writes `dst` (both n x n).
     * Exposed for tests and the entropy-detector study.
     */
    void step(const std::vector<float> &src,
              std::vector<float> &dst) const;

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
     * end and diff against the golden output. Stops early, leaving
     * `out` empty, when the state matches a golden checkpoint
     * bitwise after the last corrupted iteration.
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

    std::string name_ = "HotSpot";
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
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_HOTSPOT_HH
