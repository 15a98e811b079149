/**
 * @file
 * Fixed-bucket histogram used for stride distributions, useful-word
 * counts and similar per-figure statistics.
 */

#ifndef SDV_COMMON_HISTOGRAM_HH
#define SDV_COMMON_HISTOGRAM_HH

#include <cstdint>
#include <string>
#include <vector>

namespace sdv {

/**
 * Histogram over the integer buckets [0, numBuckets); samples above the
 * range land in a separate overflow bucket, negative samples in a
 * separate underflow bucket.
 */
class Histogram
{
  public:
    /** @param num_buckets number of in-range buckets */
    explicit Histogram(unsigned num_buckets = 10);

    /** Add @p weight samples to the bucket for @p value. */
    void sample(std::int64_t value, std::uint64_t weight = 1);

    /** Discard all samples. */
    void reset();

    /** @return raw count of bucket @p b. */
    std::uint64_t bucket(unsigned b) const;

    /** @return count of samples that fell at or above numBuckets. */
    std::uint64_t overflow() const { return overflow_; }

    /** @return count of samples with a negative value. */
    std::uint64_t underflow() const { return underflow_; }

    /** @return total number of samples (including over/underflow). */
    std::uint64_t total() const { return total_; }

    /** @return bucket count as a fraction of all samples (0 when empty). */
    double fraction(unsigned b) const;

    /** @return overflow count as a fraction of all samples. */
    double overflowFraction() const;

    /** @return number of in-range buckets. */
    unsigned numBuckets() const { return unsigned(buckets_.size()); }

    /**
     * @return a JSON object {"buckets":[...],"underflow":u,
     * "overflow":o,"total":t} — the shared emission format for every
     * histogram-shaped statistic in the JSON reports.
     */
    std::string toJson() const;

  private:
    std::vector<std::uint64_t> buckets_;
    std::uint64_t overflow_ = 0;
    std::uint64_t underflow_ = 0;
    std::uint64_t total_ = 0;
};

/**
 * Render a raw bucket-count array as a JSON array ("[a, b, c]") —
 * shared by the Histogram JSON emitter and the fixed C-array
 * histograms (e.g. VecRegFateStats::lifetimeHist) so every bucket dump
 * in the JSON reports uses one format.
 */
std::string bucketArrayJson(const std::uint64_t *buckets, std::size_t n);

} // namespace sdv

#endif // SDV_COMMON_HISTOGRAM_HH
