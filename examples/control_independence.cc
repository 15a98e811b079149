/**
 * @file
 * Demonstrate control-flow independence (Section 3.5): vector state
 * survives branch mispredictions, so the instructions after a
 * mispredicted branch can reuse already-computed vector elements.
 *
 * The kernel streams an array and branches on a pseudo-random value in
 * each iteration; the loads and their dependent arithmetic are control
 * independent of the unpredictable branch.
 */

#include <cstdio>

#include "isa/builder.hh"
#include "sim/simulator.hh"

using namespace sdv;

int
main()
{
    ProgramBuilder b;
    const unsigned n = 2048;
    const Addr data = b.allocWords("data", n);
    const Addr noise = b.allocWords("noise", n);
    std::uint64_t x = 99;
    for (unsigned i = 0; i < n; ++i) {
        b.pokeWord(data + 8 * i, 3 * i + 7);
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        b.pokeWord(noise + 8 * i, (x >> 40) & 1);
    }

    b.loadAddr(10, data);
    b.loadAddr(11, noise);
    b.ldi(12, std::int32_t(n));
    b.ldi(20, 0);
    b.ldi(21, 0);
    const auto loop = b.newLabel();
    const auto skip = b.newLabel();
    b.bind(loop);
    b.ldq(1, 11, 0);   // unpredictable 0/1
    b.beqz(1, skip);   // ~50% taken: the predictor cannot learn this
    b.addi(21, 21, 1); // taken-path work
    b.bind(skip);
    b.ldq(2, 10, 0);   // control-independent stream (vectorized)
    b.slli(3, 2, 1);
    b.xori(3, 3, 0x7f);
    b.add(20, 20, 3);
    b.addi(10, 10, 8);
    b.addi(11, 11, 8);
    b.addi(12, 12, -1);
    b.bnez(12, loop);
    b.halt();
    const Program prog = b.finish();

    const SimResult sdv_on =
        simulate(makeConfig(4, 1, BusMode::WideBusSdv), prog);
    const SimResult sdv_off =
        simulate(makeConfig(4, 1, BusMode::WideBus), prog);

    std::printf("branch mispredictions: %llu (of %llu branches)\n\n",
                (unsigned long long)sdv_on.core.branchMispredicts,
                (unsigned long long)sdv_on.core.committedBranches);

    std::printf("among the 100 instructions after each mispredict:\n");
    std::printf("  reused from vector registers: %.1f%%  (paper, "
                "SpecInt avg: ~17%%)\n\n",
                100.0 * sdv_on.controlIndependenceFraction());

    std::printf("%-22s %10s %8s\n", "configuration", "cycles", "IPC");
    std::printf("%-22s %10llu %8.2f\n", "wide bus",
                (unsigned long long)sdv_off.core.cycles, sdv_off.core.ipc());
    std::printf("%-22s %10llu %8.2f\n", "wide bus + SDV",
                (unsigned long long)sdv_on.core.cycles, sdv_on.core.ipc());
    std::printf("\nvector state survives the squash: the stream's loads "
                "and arithmetic revalidate after recovery instead of "
                "re-executing.\n");
    return 0;
}
