#include "metrics/filter.hh"

#include "common/logging.hh"
#include "metrics/relative_error.hh"

namespace radcrit
{

RelativeErrorFilter::RelativeErrorFilter(double threshold_pct)
    : thresholdPct_(threshold_pct)
{
    if (threshold_pct < 0.0)
        fatal("relative-error filter threshold %f%% is negative",
              threshold_pct);
}

SdcRecord
RelativeErrorFilter::apply(const SdcRecord &record) const
{
    SdcRecord out;
    out.dims = record.dims;
    out.extent = record.extent;
    for (const auto &e : record.elements) {
        if (keeps(relativeErrorPct(e.read, e.expected)))
            out.elements.push_back(e);
    }
    return out;
}

bool
RelativeErrorFilter::removesExecution(const SdcRecord &record) const
{
    for (const auto &e : record.elements) {
        if (keeps(relativeErrorPct(e.read, e.expected)))
            return false;
    }
    return true;
}

} // namespace radcrit
