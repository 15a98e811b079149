/**
 * @file
 * `gcc` stand-in: compiler-style passes mixing irregular pointer
 * chasing over a shuffled node pool (RTL walking), a stride-1 token
 * scan, and hashed symbol-table probes. Mid-pack SpecInt95
 * vectorizability (~40% in Figure 3) with moderately predictable
 * branches.
 */

#include "workloads/workload.hh"

#include "workloads/kernel_util.hh"

namespace sdv {

using namespace workloads;

Program
buildGcc(unsigned scale, Footprint fp, std::uint64_t fuzz_seed)
{
    // Footprint: the shuffled RTL node pool (irregular pointer chase)
    // plus the hashed symbol table. 45KB / 176KB / 1.3MB total.
    const std::size_t nodes = byFootprint<std::size_t>(fp, 1024, 4096, 32768);
    const std::size_t tokenLen =
        byFootprint<std::size_t>(fp, 512, 2048, 8192);
    const std::size_t symtabLen =
        byFootprint<std::size_t>(fp, 1024, 4096, 16384);
    const std::int32_t iters = scaledPasses("gcc", scale, 550);

    ProgramBuilder b;
    Random rng(0x6cc ^ fuzz_seed);

    const Addr head = buildList(b, "nodes", nodes, 4,
                                /*shuffled=*/true, rng);
    const Addr tokens = b.allocWords("tokens", tokenLen);
    const Addr symtab = b.allocWords("symtab", symtabLen);
    const Addr out = b.allocWords("out", 16);
    const Addr frame = b.allocWords("frame", 32);
    fillRandomWords(b, tokens, tokenLen, rng, 200);
    fillRandomWords(b, symtab, symtabLen, rng, 5000);

    emitLcgInit(b, 0xc0ffee ^ fuzz_seed);
    b.loadAddr(ptr0, head);
    b.loadAddr(ptr2, symtab);
    b.loadAddr(framePtr, frame);
    b.ldi(acc0, 0);
    b.ldi(acc1, 0);

    countedLoop(b, counter0, iters, [&] {
        // Pass-state reloads (current function, flags: stride 0).
        emitSpillReloads(b, 5, acc1);
        // Walk one RTL node (shuffled pool: irregular strides).
        countedLoop(b, counter1, 1, [&] {
            b.ldq(scratch0, ptr0, 8);  // payload
            b.ldq(scratch1, ptr0, 16); // payload
            b.ldq(ptr0, ptr0, 0);      // next (irregular)
            b.add(acc0, acc0, scratch0);
            auto skip = b.newLabel();
            // ~75% of payloads are below 750.
            b.cmplti(scratch2, scratch1, 750);
            b.beqz(scratch2, skip);
            b.add(acc1, acc1, scratch1);
            b.bind(skip);
        });

        // Token scan (stride 1, vectorizable with its arithmetic).
        b.loadAddr(ptr1, tokens);
        b.andi(scratch0, counter0, subIndexMask(tokenLen, 2));
        b.slli(scratch0, scratch0, 3);
        b.add(ptr1, ptr1, scratch0);
        countedLoop(b, counter1, 6, [&] {
            b.ldq(scratch1, ptr1, 0);
            b.addi(ptr1, ptr1, 8);
            b.slli(scratch2, scratch1, 1);
            b.xori(scratch2, scratch2, 0x55);
            b.add(acc0, acc0, scratch2);
        });

        // Symbol-table probe at a hashed (pseudo-random) index.
        emitLcgNext(b, scratch0, std::uint32_t(indexMask(symtabLen)));
        b.slli(scratch0, scratch0, 3);
        b.add(ptr3, ptr2, scratch0);
        b.ldq(scratch1, ptr3, 0);
        auto miss = b.newLabel();
        b.cmplti(scratch2, scratch1, 2500);
        b.beqz(scratch2, miss);
        b.addi(scratch1, scratch1, 1);
        b.stq(scratch1, ptr3, 0);
        b.bind(miss);
    });

    b.loadAddr(ptr3, out);
    b.stq(acc0, ptr3, 0);
    b.stq(acc1, ptr3, 8);
    b.halt();
    return b.finish();
}

} // namespace sdv
