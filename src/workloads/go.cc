/**
 * @file
 * `go` stand-in: branchy board-evaluation code with data-dependent
 * control, random board probes (irregular strides), short regular row
 * scans, a frequently reloaded global evaluation score (stride 0) and
 * a helper routine. SPEC's go is the least predictable SpecInt95
 * member with the lowest vectorizable fraction (~30% in Figure 3).
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildGo(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // The probed board is the footprint: 8KB at the seed size, 128KB
    // (L2-resident) and 1MB (memory-resident) beyond; the random
    // probes spread over the whole board in every mode.
    const std::size_t boardWords =
        byFootprint<std::size_t>(fp, 1024, 16384, 131072);
    const std::int32_t iters = scaledPasses("go", scale, 1400);

    ProgramBuilder b;
    Random rng(0x60601 ^ fuzz_seed);

    const Addr board = b.allocWords("board", boardWords);
    const Addr weights = b.allocWords("weights", 64);
    const Addr globals = b.allocWords("globals", 8);
    const Addr frame = b.allocWords("frame", 32);
    // ~70% of board positions are "interesting" (positive): the
    // evaluation branch is biased but data dependent.
    fillWords(b, board, boardWords, [&](size_t) {
        return rng.chancePercent(70) ? rng.below(50) + 1
                                     : std::uint64_t(-std::int64_t(
                                           rng.below(50) + 1));
    });
    fillRandomWords(b, weights, 64, rng, 97);
    fillWords(b, globals, 8, [](size_t) { return 1; });

    // Helper: score = weights[idx & 63] * 3 + score (called via jal).
    auto helper = b.newLabel();
    auto start = b.newLabel();
    b.br(start);
    b.bind(helper);
    b.andi(scratch2, scratch0, 63);
    b.slli(scratch2, scratch2, 3);
    b.loadAddr(ptr3, weights);
    b.add(ptr3, ptr3, scratch2);
    b.ldq(scratch2, ptr3, 0);
    b.slli(scratch3, scratch2, 1);
    b.add(scratch2, scratch2, scratch3);
    b.add(acc1, acc1, scratch2);
    b.jr(31);

    b.bind(start);
    emitLcgInit(b, 0xdecafbad ^ fuzz_seed);
    b.loadAddr(ptr0, board);
    b.loadAddr(ptr2, globals);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);
    b.ldi(acc1, 0);

    countedLoop(b, counter0, iters, [&] {
        // Unoptimized-code locals reloads (stride 0).
        emitSpillReloads(b, 5, acc2);
        // Board probe: mostly sequential with occasional random jumps
        // (move generators sweep neighbourhoods). r23 is the cursor.
        {
            const RegId cursor = 23;
            auto jump = b.newLabel();
            auto probed = b.newLabel();
            b.andi(scratch0, counter0, 3);
            b.beqz(scratch0, jump);
            b.addi(cursor, cursor, 8); // advance the sweep cursor
            b.br(probed);
            b.bind(jump);
            emitLcgNext(b, scratch0, std::uint32_t(indexMask(boardWords)));
            b.slli(cursor, scratch0, 3);
            b.bind(probed);
            b.andi(scratch1, cursor, byteMask(boardWords));
        }
        b.add(ptr1, ptr0, scratch1);
        b.ldq(scratch1, ptr1, 0);

        // Data-dependent evaluation branch (~70% taken).
        auto negative = b.newLabel();
        auto joined = b.newLabel();
        b.bltz(scratch1, negative);
        // Positive position: reload the global score (stride 0),
        // account, and scan a short row (stride-1 loads).
        b.ldq(scratch2, ptr2, 0);
        b.add(acc0, acc0, scratch2);
        b.mov(ptr3, ptr1);
        countedLoop(b, counter1, 3, [&] {
            b.ldq(scratch3, ptr3, 0);
            b.slli(scratch2, scratch3, 2);
            b.sub(scratch2, scratch2, scratch3);
            b.add(acc0, acc0, scratch2);
            b.addi(ptr3, ptr3, 8);
        });
        b.br(joined);
        b.bind(negative);
        // Defensive path: call the helper and update the global
        // (occasional store near the stride-0 load's range).
        b.jal(helper);
        b.andi(scratch3, counter0, 63);
        auto no_store = b.newLabel();
        b.bnez(scratch3, no_store);
        b.stq(acc1, ptr2, 0);
        b.bind(no_store);
        b.bind(joined);
        b.sub(acc2, acc0, acc1);
    });

    // Publish results so verification has visible state.
    b.stq(acc0, ptr2, 8);
    b.stq(acc1, ptr2, 16);
    b.stq(acc2, ptr2, 24);
    b.halt();
    return b.finish();
}

} // namespace sdv
