/**
 * @file
 * The snapshot store behind --checkpoint and --samples: one capture-pass
 * result per workload (a SampleSet — one warm image, or the interval
 * samples), keyed by everything that shapes the capture: workload,
 * scale, footprint, warm-up length, sampling parameters, cycle budget
 * and the canonical warm-config hash (sim/config.hh:
 * configIdentityHash).
 *
 * Without a directory the store is a plain capture: the set stays in
 * memory, never copied or serialized. With --checkpoint-dir D every set
 * is persisted as one container file `D/<key>.snap`, published
 * atomically (Checkpoint::save's temp + rename) and reused by later
 * runs. A container is trusted only when its format version, its
 * checksum64 trailer, the fingerprint of the binary that wrote it and
 * the program identity all match; anything else is recaptured and
 * overwritten in place.
 */

#ifndef SDV_SWEEP_SNAPSHOT_CACHE_HH
#define SDV_SWEEP_SNAPSHOT_CACHE_HH

#include <cstdint>
#include <functional>
#include <string>

#include "sweep/executor.hh"
#include "sweep/sampling.hh"

namespace sdv {
namespace sweep {

/**
 * @return the store key of @p workload's snapshot set under @p plan and
 * @p opt (the container file is `<dir>/<key>.snap`). Two runs share a
 * key only when they would capture the same bytes.
 */
std::string snapshotKey(const SweepPlan &plan, const ExecOptions &opt,
                        const std::string &workload);

/** @return the identity of the running executable (size, mtime and
 *  inode): a snapshot written by another build is never trusted —
 *  deterministic is not version-stable. */
std::uint64_t binaryFingerprint();

/** Serialize @p set, captured from the program with identity
 *  @p programHash by the binary @p fingerprint, and publish it
 *  atomically at @p path. */
bool saveSnapshotSet(const std::string &path, const SampleSet &set,
                     std::uint64_t programHash, std::uint64_t fingerprint);

/**
 * @return the snapshot set of @p key. With an empty @p dir this is
 * just capture(). Otherwise a valid container for @p key is loaded from
 * @p dir; a missing, corrupt or stale one is replaced by capture()'s
 * result, saved in its place. Calls for distinct keys may run
 * concurrently: the executor runs one per workload on its pool.
 */
SampleSet loadOrCapture(const std::string &dir, const std::string &key,
                        std::uint64_t programHash,
                        const std::function<SampleSet()> &capture);

} // namespace sweep
} // namespace sdv

#endif // SDV_SWEEP_SNAPSHOT_CACHE_HH
