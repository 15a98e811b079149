/**
 * @file
 * Adversarial timing-channel pair (PR 6): a victim whose speculative
 * vector-register lifetimes depend on secret data, and an attacker that
 * interleaves probe phases with the victim pattern to observe them.
 *
 * The channel under study is the *speculative vector state* the SDV
 * engine keeps alive across scheduling boundaries: a chain spawned on a
 * secret-dependent access pattern holds its elements live for a
 * secret-dependent number of cycles, and any state still transient
 * (computed but never validated) when a --quiesce-interval boundary
 * drops it is exactly what a co-resident attacker could have probed.
 * Architectural results are oracle-driven and never depend on the
 * speculation, so the channel is visible only in the transient-exposure
 * statistics: CoreStats quiesceLiveVregs/quiesceTransientElems at each
 * boundary and the VecRegFateStats lifetime histogram, reported
 * per-config in the sweep JSON ("attack" plan).
 *
 * Neither kernel is part of allWorkloads(): the 12-workload suite is
 * the fixed baseline surface of every figure. They register through
 * attackWorkloads() / findWorkload() and run through the "attack"
 * plan (`sdv_sweep --plan attack`, excluded from --plan all).
 */

#include "workloads/workload.hh"

#include <algorithm>

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

/**
 * Emit one victim segment: read a secret word, then stream stride-1
 * loads from a secret-selected offset for a secret-selected length
 * (16..79 words). The stream vectorizes; how long each chain lives —
 * and how many elements are still transient when it dies — depends on
 * the secret bits.
 *
 * In: ptr0 = &secret[seg] (advanced by 8 here). Clobbers scratch0-3,
 * ptr2; accumulates into acc0.
 */
static void
emitVictimSegment(ProgramBuilder &b, Addr buffer, std::int32_t off_mask)
{
    b.ldq(scratch0, ptr0, 0); // the secret word
    b.addi(ptr0, ptr0, 8);

    // Secret-dependent stream start: buffer + (secret & mask) words.
    b.andi(scratch1, scratch0, off_mask);
    b.slli(scratch1, scratch1, 3);
    b.loadAddr(ptr2, buffer);
    b.add(ptr2, ptr2, scratch1);

    // Secret-dependent stream length: 16 + (secret >> 8) % 64.
    b.srli(scratch2, scratch0, 8);
    b.andi(scratch2, scratch2, 63);
    b.addi(scratch2, scratch2, 16);

    const auto loop = b.here();
    b.ldq(scratch3, ptr2, 0); // stride-1: spawns a vector chain
    b.addi(ptr2, ptr2, 8);
    b.add(acc0, acc0, scratch3);
    b.addi(scratch2, scratch2, -1);
    b.bnez(scratch2, loop);
}

Program
buildTcVictim(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // The secret array drives the chain lengths; the streamed buffer
    // is what the secret-dependent chains load from.
    const std::size_t secretLen =
        byFootprint<std::size_t>(fp, 512, 1024, 4096);
    const std::size_t bufferLen =
        byFootprint<std::size_t>(fp, 2048, 16384, 131072);
    const std::int32_t segs =
        std::min(byFootprint(fp, 256, 512, 1024), indexMask(secretLen) + 1);
    const std::int32_t passes =
        scaledPasses("tc_victim", scale, 4, byFootprint(fp, 1u, 2u, 4u));

    ProgramBuilder b;
    Random rng(0x7c7111 ^ fuzz_seed);

    const Addr secret = b.allocWords("secret", secretLen);
    const Addr buffer = b.allocWords("buffer", bufferLen);
    const Addr frame = b.allocWords("frame", 16);
    fillRandomWords(b, secret, secretLen, rng, 1ull << 32);
    fillRandomWords(b, buffer, bufferLen, rng, 4096);

    // The stream must fit: start offset <= buffer - 80 words.
    const std::int32_t off_mask =
        subIndexMask(bufferLen, 2); // start in the lower half

    b.ldi(acc0, 0);
    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, secret);
        countedLoop(b, counter1, segs, [&] {
            emitVictimSegment(b, buffer, off_mask);
        });
    });

    b.loadAddr(ptr3, frame);
    b.stq(acc0, ptr3, 0);
    b.halt();
    return b.finish();
}

Program
buildTcAttack(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    const std::size_t secretLen =
        byFootprint<std::size_t>(fp, 512, 1024, 4096);
    const std::size_t bufferLen =
        byFootprint<std::size_t>(fp, 2048, 16384, 131072);
    // The attacker's probe array: randomly probed, evicting/observing
    // the lines the victim's speculative element loads touch.
    const std::size_t probeLen =
        byFootprint<std::size_t>(fp, 2048, 16384, 131072);
    const std::int32_t segs =
        std::min(byFootprint(fp, 128, 256, 512), indexMask(secretLen) + 1);
    const std::int32_t passes =
        scaledPasses("tc_attack", scale, 4, byFootprint(fp, 1u, 2u, 4u));

    ProgramBuilder b;
    Random rng(0x477ac ^ fuzz_seed);

    const Addr secret = b.allocWords("secret", secretLen);
    const Addr buffer = b.allocWords("buffer", bufferLen);
    const Addr probe = b.allocWords("probe", probeLen);
    const Addr frame = b.allocWords("frame", 16);
    fillRandomWords(b, secret, secretLen, rng, 1ull << 32);
    fillRandomWords(b, buffer, bufferLen, rng, 4096);
    fillRandomWords(b, probe, probeLen, rng, 4096);

    const std::int32_t off_mask = subIndexMask(bufferLen, 2);
    const std::int32_t probe_mask = indexMask(probeLen);

    b.ldi(acc0, 0); // victim accumulator
    b.ldi(acc1, 0); // attacker "measurement" accumulator
    emitLcgInit(b, 0xa77acc ^ fuzz_seed);
    b.loadAddr(ptr1, probe);

    countedLoop(b, counter0, passes, [&] {
        b.loadAddr(ptr0, secret);
        countedLoop(b, counter1, segs, [&] {
            // Victim phase: a secret-dependent speculative chain. With
            // --quiesce-interval active, some of these segments land a
            // boundary mid-chain, dropping (and exposing) transient
            // elements at a secret-dependent rate.
            emitVictimSegment(b, buffer, off_mask);

            // Attacker phase: probe pseudo-random lines of the probe
            // array. The values are secret-independent; the *latency*
            // each probe sees depends on what the victim's speculative
            // element loads displaced — the cache-side channel. A
            // stride-1 tail re-primes the vector engine so attacker
            // chains are alive at the next boundary too.
            countedLoop(b, spillTmp, 64, [&] {
                emitLcgNext(b, scratch1, probe_mask);
                b.slli(scratch1, scratch1, 3);
                b.add(ptr3, ptr1, scratch1);
                b.ldq(scratch2, ptr3, 0);
                b.add(acc1, acc1, scratch2);
            });
            b.loadAddr(ptr3, probe);
            countedLoop(b, spillTmp, 32, [&] {
                b.ldq(scratch2, ptr3, 0);
                b.addi(ptr3, ptr3, 8);
                b.add(acc1, acc1, scratch2);
            });
        });
    });

    b.loadAddr(ptr3, frame);
    b.stq(acc0, ptr3, 0);
    b.stq(acc1, ptr3, 8);
    b.halt();
    return b.finish();
}

} // namespace sdv
