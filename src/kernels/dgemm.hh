/**
 * @file
 * DGEMM workload: dense double-precision matrix multiply, the
 * paper's representative of highly arithmetic, compute-bound, Dense
 * Linear Algebra codes (Table I: CPU-bound, balanced, regular).
 *
 * The launch follows Table II: side^2/16 threads (each thread owns a
 * 4x4 tile of C); blocks own 64x64 tiles staged through shared
 * memory/L1. Default inputs are scaled stand-ins: a side of n
 * represents a paper side of n * paperScale (8 by default, so the
 * scaled series 128..1024 maps onto the paper's 1024..8192); launch
 * traits (thread counts, cache working sets) are computed at paper
 * scale while the numeric arrays stay at the scaled size.
 */

#ifndef RADCRIT_KERNELS_DGEMM_HH
#define RADCRIT_KERNELS_DGEMM_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "obs/timer.hh"
#include "sim/workload.hh"

namespace radcrit
{

/**
 * Double-precision matrix multiply C = A * B with architectural
 * injection hooks.
 */
class Dgemm : public Workload
{
  public:
    /**
     * @param device Device the workload is bound to.
     * @param n Scaled matrix side (must be a multiple of 64).
     * @param seed Input-generation seed; inputs are sign-balanced
     * uniform values in (-1, 1) (paper IV-D: balanced 0s and 1s,
     * small enough to avoid overflow).
     * @param paper_scale Paper-equivalent side = n * paper_scale.
     *
     * The golden output is computed in contiguous row bands, one
     * per job of the build pool attached to the calling thread
     * (forBands(), exec/pool.hh), and in one band when none is.
     * Each element keeps its ascending-k summation order, so the
     * bytes are the same for every job count.
     */
    Dgemm(const DeviceModel &device, int64_t n, uint64_t seed = 42,
          int64_t paper_scale = 8);

    const std::string &name() const override { return traits_.name; }
    std::string inputLabel() const override;
    const WorkloadTraits &traits() const override { return traits_; }
    SdcRecord inject(const Strike &strike, Rng &rng) override;
    SdcRecord emptyRecord() const override;
    std::unique_ptr<Workload> clone() const override
    {
        return std::make_unique<Dgemm>(*this);
    }

    /** @return scaled matrix side. */
    int64_t n() const { return n_; }

    /**
     * The input label and launch traits of a side-n workload, as
     * inputLabel() and traits() report them, without computing
     * inputs or the golden output.
     */
    static std::string labelFor(int64_t n, int64_t paper_scale = 8);
    static WorkloadTraits traitsFor(const DeviceModel &device,
                                    int64_t n,
                                    int64_t paper_scale = 8);

    /** @return input matrix A (row-major, n x n). */
    const std::vector<double> &a() const { return gold_->a; }

    /** @return input matrix B (row-major, n x n). */
    const std::vector<double> &b() const { return gold_->b; }

    /** @return golden output C (row-major, n x n). */
    const std::vector<double> &goldenC() const { return gold_->c; }

    /** Block tile side (elements of C per thread block). */
    static constexpr int64_t blockTile = 64;
    /** Warp/vector chunk shape within a block tile. */
    static constexpr int64_t chunkRows = 8;
    static constexpr int64_t chunkCols = 16;

  private:
    /** Full dot product golden(i, j) recomputed from inputs. */
    double dot(int64_t i, int64_t j) const;
    /** Partial dot product over k in [0, k_end). */
    double partialDot(int64_t i, int64_t j, int64_t k_end) const;

    void injectAccumulatorFlip(const Strike &strike, Rng &rng,
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

    /** Record (i, j) as corrupted when read differs from golden. */
    void record(SdcRecord &out, int64_t i, int64_t j,
                double read) const;

    /**
     * Inputs and golden output, computed once at construction and
     * immutable afterwards: clones share one block instead of
     * copying O(n^2) doubles per campaign worker.
     */
    struct Golden
    {
        std::vector<double> a;
        std::vector<double> b;
        std::vector<double> c;
        /** RMS magnitude of golden C (garbage-value scale). */
        double cRms = 1.0;
    };

    DeviceModel device_;
    int64_t n_;
    int64_t paperScale_;
    WorkloadTraits traits_;
    std::shared_ptr<const Golden> gold_;
    /** Injection-replay latency telemetry. */
    PhaseTimer injectTimer_{StatsRegistry::global(),
                            "kernel.dgemm.inject"};
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_DGEMM_HH
