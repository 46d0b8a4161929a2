/**
 * @file
 * The parameterized relative-error filter (paper Section III).
 *
 * "When we apply the filter, we ignore all incorrect elements whose
 * relative error is lower than 2%. We remove faulty executions where
 * there are no mismatches left after the filter."
 */

#ifndef RADCRIT_METRICS_FILTER_HH
#define RADCRIT_METRICS_FILTER_HH

#include "metrics/sdcrecord.hh"

namespace radcrit
{

/**
 * Drops corrupted elements whose relative error does not exceed a
 * tolerance threshold, modelling applications that accept slightly
 * imprecise results (e.g. seismic misfits of ~4%, paper ref. [14]).
 */
class RelativeErrorFilter
{
  public:
    /**
     * @param threshold_pct Keep only elements with relative error
     * strictly greater than this, in percent (paper default: 2).
     */
    explicit RelativeErrorFilter(double threshold_pct = 2.0);

    /** @return the configured threshold in percent. */
    double thresholdPct() const { return thresholdPct_; }

    /** @return true when an element of this relative error (in
     * percent) survives the filter. */
    bool keeps(double rel_err_pct) const
    {
        return rel_err_pct > thresholdPct_;
    }

    /**
     * @return a copy of the record containing only elements whose
     * relative error exceeds the threshold. An empty result means
     * the faulty execution would be removed from the evaluation.
     */
    SdcRecord apply(const SdcRecord &record) const;

    /** @return true when the whole execution passes as correct. */
    bool removesExecution(const SdcRecord &record) const;

  private:
    double thresholdPct_;
};

} // namespace radcrit

#endif // RADCRIT_METRICS_FILTER_HH
