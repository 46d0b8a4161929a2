/**
 * @file
 * LavaMD workload: particle forces in a 3D grid of boxes, the
 * paper's representative of N-Body / Multi-physics Particle Dynamics
 * codes (Table I: memory-bound, imbalanced, regular).
 *
 * Each box holds P particles; every particle accumulates the force
 * contribution q_j * 2 * exp(-a2 * r^2) * (x_i - x_j) over all
 * particles of the 27-box cutoff neighborhood (clamped at borders,
 * producing the load imbalance the paper notes), following the
 * Rodinia kernel's fs*d.x force terms. The exponentiation is the
 * criticality driver the paper identifies: "the exponentiation
 * operations can turn small value variations into large
 * differences" — and because the signed force sum cancels, even a
 * single corrupted pair term is visible against the total.
 *
 * Scaling: a grid of nb boxes stands for a paper grid of
 * nb * paperScale boxes, and P = particlesPerBoxHint / particleScale
 * particles stand for the device-tuned paper count (192 on K40, 100
 * on Phi). Launch traits use paper-equivalent numbers.
 */

#ifndef RADCRIT_KERNELS_LAVAMD_HH
#define RADCRIT_KERNELS_LAVAMD_HH

#include <cstdint>
#include <string>
#include <vector>

#include "obs/timer.hh"
#include "sim/workload.hh"

namespace radcrit
{

/**
 * LavaMD particle-potential kernel with injection hooks.
 */
class LavaMd : public Workload
{
  public:
    /**
     * @param device Device the workload is bound to (chooses the
     * particles-per-box tuning).
     * @param boxes1d Scaled boxes per dimension (>= 2).
     * @param seed Input-generation seed.
     * @param paper_scale Paper boxes1d = boxes1d * paper_scale.
     * @param particle_scale Scaled P = hint / particle_scale.
     * @param paper_boxes1d Optional exact paper size this scaled
     * grid stands for (used for labels and paper-scale traits when
     * the paper size is not an exact multiple, e.g. 13 -> 6).
     *
     * The golden forces are computed in contiguous box bands, one
     * per job of the build pool attached to the calling thread
     * (forBands(), exec/pool.hh), and in one band when none is.
     * Each force keeps its neighbour and particle summation
     * order, so the bytes are the same for every job count.
     */
    LavaMd(const DeviceModel &device, int64_t boxes1d,
           uint64_t seed = 42, int64_t paper_scale = 2,
           int64_t particle_scale = 4, int64_t paper_boxes1d = 0);

    const std::string &name() const override { return traits_.name; }
    std::string inputLabel() const override;
    const WorkloadTraits &traits() const override { return traits_; }
    SdcRecord inject(const Strike &strike, Rng &rng) override;
    SdcRecord emptyRecord() const override;
    std::unique_ptr<Workload> clone() const override
    {
        // Positions/charges and golden forces are small (boxes^3 *
        // P doubles), so a plain copy is cheaper than sharing; the
        // cur* scratch buffers must be private per clone anyway.
        return std::make_unique<LavaMd>(*this);
    }

    /** @return scaled boxes per dimension. */
    int64_t boxes1d() const { return nb_; }

    /**
     * The input label and launch traits of a workload standing for
     * a paper grid of paper_boxes1d boxes per dimension, as
     * inputLabel() and traits() report them, without generating
     * particles or the golden forces.
     */
    static std::string labelFor(int64_t paper_boxes1d);
    static WorkloadTraits traitsFor(const DeviceModel &device,
                                    int64_t paper_boxes1d);

    /** @return scaled particles per box. */
    int64_t particlesPerBox() const { return p_; }

    /** @return golden forces (x), indexed box * P + particle. */
    const std::vector<double> &goldenForce() const
    {
        return fGolden_;
    }

    /** Interaction coefficient: u2 = a2 * r^2. */
    static constexpr double a2 = 0.5 * 0.5 * 0.5;

  private:
    /** Linear index of box (bx, by, bz). */
    int64_t boxIndex(int64_t bx, int64_t by, int64_t bz) const;
    /** Box coordinates of a linear index. */
    std::array<int64_t, 3> boxCoord(int64_t b) const;
    /** Neighbor boxes (incl. home), clamped at the borders. */
    std::vector<int64_t> neighbors(int64_t b) const;

    /** Pairwise force contribution of particle gj on gi. */
    double pairForce(int64_t gi, int64_t gj) const;
    /** Force on particle gi over a set of neighbor boxes. */
    double forceOver(int64_t gi,
                     const std::vector<int64_t> &boxes) const;

    /**
     * Number of neighborhood boxes that consume a corrupted value
     * held in the given resource, derived from cache residency.
     */
    int64_t consumerBoxes(ResourceKind resource, size_t neigh,
                          Rng &rng) const;

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

    /**
     * Recompute the potentials of every particle in `box` with the
     * position/charge of particles in `corrupted` overridden, and
     * record mismatches.
     */
    void recomputeBoxWith(int64_t box,
                          const std::vector<int64_t> &corrupted_gi,
                          SdcRecord &out);

    void record(SdcRecord &out, int64_t gi, double read) const;

    DeviceModel device_;
    int64_t nb_;
    int64_t p_;
    int64_t paperScale_;
    int64_t paperBoxes_;
    WorkloadTraits traits_;
    /** Positions and charges, indexed box * P + particle. */
    std::vector<double> posx_, posy_, posz_, charge_;
    /** Working copies holding injected corruption. */
    std::vector<double> curx_, cury_, curz_, curq_;
    std::vector<double> fGolden_;
    double fRms_ = 1.0;
    /** Injection-replay latency telemetry. */
    PhaseTimer injectTimer_{StatsRegistry::global(),
                            "kernel.lavamd.inject"};
};

} // namespace radcrit

#endif // RADCRIT_KERNELS_LAVAMD_HH
