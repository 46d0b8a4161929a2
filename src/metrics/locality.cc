#include "metrics/locality.hh"

#include <algorithm>
#include <vector>

#include "common/logging.hh"

namespace radcrit
{

const char *
patternName(Pattern p)
{
    switch (p) {
      case Pattern::None: return "None";
      case Pattern::Single: return "Single";
      case Pattern::Line: return "Line";
      case Pattern::Square: return "Square";
      case Pattern::Cubic: return "Cubic";
      case Pattern::Random: return "Random";
      default:
        panic("patternName: invalid pattern %d",
              static_cast<int>(p));
    }
}

Pattern
SortedPositions::classify(const LocalityParams &params) const
{
    if (unique_ == 0)
        return Pattern::None;
    if (unique_ == 1)
        return Pattern::Single;

    // Which axes vary, and the bounding box's size along them. The
    // extent is taken in uint64_t (hi >= lo, so the difference is
    // exact and cannot overflow) and is exact in double below 2^53.
    int varying = 0;
    double size = 1.0;
    for (int a = 0; a < 3; ++a) {
        if (hi_[a] != lo_[a])
            ++varying;
        size *= static_cast<double>(static_cast<uint64_t>(hi_[a]) -
                                    static_cast<uint64_t>(lo_[a])) +
            1.0;
    }

    if (varying == 0) {
        // Distinct coords with no varying axis cannot happen.
        panic("locality: %zu unique coords but no varying axis",
              unique_);
    }
    if (varying == 1)
        return Pattern::Line;

    auto n = static_cast<double>(unique_);
    if (varying == 2)
        return (n / size >= params.squareDensity) ? Pattern::Square
                                                  : Pattern::Random;
    return (n / size >= params.cubicDensity) ? Pattern::Cubic
                                             : Pattern::Random;
}

namespace
{

SortedPositions
sortedPositions(const SdcRecord &record)
{
    std::vector<std::array<int64_t, 3>> coords;
    coords.reserve(record.elements.size());
    for (const auto &e : record.elements)
        coords.push_back(e.coord);
    std::sort(coords.begin(), coords.end());
    SortedPositions positions;
    for (const auto &c : coords)
        positions.add(c);
    return positions;
}

} // anonymous namespace

size_t
uniquePositions(const SdcRecord &record)
{
    return sortedPositions(record).unique();
}

Pattern
classifyLocality(const SdcRecord &record,
                 const LocalityParams &params)
{
    return sortedPositions(record).classify(params);
}

} // namespace radcrit
