/**
 * @file
 * Quickstart: build a small program with the ProgramBuilder, run it on
 * the paper's 4-way machine with one wide bus and speculative dynamic
 * vectorization, and inspect what the mechanism did.
 */

#include <cstdio>

#include "isa/builder.hh"
#include "sim/simulator.hh"

using namespace sdv;

int
main()
{
    // A fused multiply-add over three stride-1 streams: acc += x*y + z.
    // Three loads per iteration make the scalar machine port-bound;
    // vectorization turns most of them into portless validations.
    ProgramBuilder b;
    const unsigned n = 512;
    const Addr xs = b.allocWords("xs", n);
    const Addr ys = b.allocWords("ys", n);
    const Addr zs = b.allocWords("zs", n);
    const Addr ws = b.allocWords("ws", n);
    for (unsigned i = 0; i < n; ++i) {
        b.pokeWord(xs + 8 * i, i + 1);
        b.pokeWord(ys + 8 * i, 2 * i + 3);
        b.pokeWord(zs + 8 * i, 5 * i + 1);
        b.pokeWord(ws + 8 * i, 7 * i + 2);
    }

    // The arrays are contiguous, so one base register with fixed
    // displacements addresses all three streams.
    const std::int32_t dy = std::int32_t(ys - xs);
    const std::int32_t dz = std::int32_t(zs - xs);
    const std::int32_t dw = std::int32_t(ws - xs);
    b.loadAddr(10, xs);
    b.ldi(12, std::int32_t(n)); // counter
    b.ldi(20, 0);               // accumulator
    const auto loop = b.here();
    b.ldq(1, 10, 0);   // x[i]      <- becomes a vector load
    b.ldq(2, 10, dy);  // y[i]      <- becomes a vector load
    b.ldq(4, 10, dz);  // z[i]      <- becomes a vector load
    b.ldq(5, 10, dw);  // w[i]      <- becomes a vector load
    b.mul(3, 1, 2);    // x*y       <- vectorized (vector sources)
    b.add(3, 3, 4);    // +z        <- vectorized
    b.xor_(3, 3, 5);   // ^w        <- vectorized
    b.add(20, 20, 3);  // acc       <- reduction: re-vectorizes
    b.addi(10, 10, 8);
    b.addi(12, 12, -1);
    b.bnez(12, loop);
    b.halt();
    const Program prog = b.finish();

    std::printf("program: %zu static instructions\n\n", prog.numInsts());

    // The paper's headline machine: 4-way, one wide L1D port, SDV on.
    const CoreConfig cfg = makeConfig(4, 1, BusMode::WideBusSdv);
    Simulator sim(cfg, prog);
    const SimResult r = sim.run();

    std::printf("finished: %s, verified against functional execution: "
                "%s\n",
                r.finished ? "yes" : "no", r.verified ? "yes" : "no");
    std::printf("cycles: %llu   instructions: %llu   IPC: %.2f\n\n",
                (unsigned long long)r.core.cycles,
                (unsigned long long)r.core.committedInsts, r.core.ipc());

    std::printf("what the vectorization engine did:\n");
    std::printf("  vector load spawns (TL detections): %llu (+%llu "
                "chained)\n",
                (unsigned long long)r.engine.loadSpawns,
                (unsigned long long)r.engine.loadChainSpawns);
    std::printf("  vector arithmetic spawns:           %llu (+%llu "
                "chained)\n",
                (unsigned long long)r.engine.arithSpawns,
                (unsigned long long)r.engine.arithChainSpawns);
    std::printf("  validations committed:              %llu (%.1f%% of "
                "instructions)\n",
                (unsigned long long)r.core.committedValidations,
                100.0 * r.validationFraction());
    std::printf("  L1D port requests:                  %llu\n",
                (unsigned long long)r.memoryRequests());
    std::printf("  validation self-check mismatches:   %llu (must be 0)\n",
                (unsigned long long)
                    r.engine.validationValueMismatches);

    // Compare against the same machine without vectorization.
    const SimResult base =
        simulate(makeConfig(4, 1, BusMode::ScalarBus), prog);
    std::printf("\nspeedup vs 4-way scalar-bus baseline: %.1f%%\n",
                100.0 * (double(base.core.cycles) / double(r.core.cycles) -
                         1.0));
    return 0;
}
