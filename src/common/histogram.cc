#include "common/histogram.hh"

#include <sstream>

#include "common/log.hh"

namespace sdv {

Histogram::Histogram(unsigned num_buckets) : buckets_(num_buckets, 0)
{
    sdv_assert(num_buckets > 0, "histogram needs at least one bucket");
}

void
Histogram::sample(std::int64_t value, std::uint64_t weight)
{
    if (value < 0)
        underflow_ += weight;
    else if (value < std::int64_t(buckets_.size()))
        buckets_[size_t(value)] += weight;
    else
        overflow_ += weight;
    total_ += weight;
}

void
Histogram::reset()
{
    for (auto &b : buckets_)
        b = 0;
    overflow_ = 0;
    underflow_ = 0;
    total_ = 0;
}

std::uint64_t
Histogram::bucket(unsigned b) const
{
    sdv_assert(b < buckets_.size(), "bucket out of range");
    return buckets_[b];
}

double
Histogram::fraction(unsigned b) const
{
    return total_ == 0 ? 0.0 : double(bucket(b)) / double(total_);
}

double
Histogram::overflowFraction() const
{
    return total_ == 0 ? 0.0 : double(overflow_) / double(total_);
}

std::string
Histogram::toJson() const
{
    std::ostringstream os;
    os << "{\"buckets\":" << bucketArrayJson(buckets_.data(), buckets_.size())
       << ",\"underflow\":" << underflow_ << ",\"overflow\":" << overflow_
       << ",\"total\":" << total_ << "}";
    return os.str();
}

std::string
bucketArrayJson(const std::uint64_t *buckets, std::size_t n)
{
    std::ostringstream os;
    os << "[";
    for (std::size_t i = 0; i < n; ++i) {
        if (i)
            os << ", ";
        os << buckets[i];
    }
    os << "]";
    return os.str();
}

} // namespace sdv
