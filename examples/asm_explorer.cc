/**
 * @file
 * Drive the simulator from assembly text: assemble a pointer-chasing
 * kernel with the bundled two-pass assembler, disassemble it back, and
 * compare machine configurations on it.
 *
 * The kernel walks a linked list whose nodes are allocated
 * sequentially — the paper's motivating case of pointer code that a
 * compiler cannot vectorize but the hardware mechanism can.
 */

#include <cstdio>

#include "isa/assembler.hh"
#include "sim/simulator.hh"

using namespace sdv;

namespace {

const char *const source = R"(
; Walk a 64-node list 200 times, summing payloads.
.data nodes 128          ; 64 nodes x (next, payload)
.entry main

main:
    la   r10, nodes      ; node cursor
    li   r14, 12800      ; total hops (200 walks x 64 nodes)
    li   r20, 0          ; checksum

; initialize the list: node i -> node i+1 (sequential pool)
    la   r1, nodes
    li   r2, 63
initloop:
    addi r3, r1, 16      ; next node address
    stq  r3, 0(r1)       ; next pointer
    stq  r2, 8(r1)       ; payload
    mov  r1, r3
    addi r2, r2, -1
    bnez r2, initloop
    la   r3, nodes       ; close the cycle
    stq  r3, 0(r1)
    stq  r0, 8(r1)

walk:
    ldq  r4, 8(r10)      ; payload     (stride-2 elements)
    ldq  r10, 0(r10)     ; next        (pointer chase, constant stride)
    srli r5, r4, 1
    add  r20, r20, r5
    addi r14, r14, -1
    bnez r14, walk

    la   r1, nodes
    stq  r20, 8(r1)      ; publish the checksum
    halt
)";

} // namespace

int
main()
{
    const AsmResult as = assemble(source);
    if (!as.ok) {
        std::fprintf(stderr, "assembly failed: %s\n", as.error.c_str());
        return 1;
    }

    std::printf("assembled %zu instructions; first ten:\n",
                as.program.numInsts());
    unsigned shown = 0;
    for (Addr pc = as.program.codeBase();
         shown < 10 && pc < as.program.codeEnd(); pc += instBytes) {
        std::printf("  0x%llx:  %s\n", (unsigned long long)pc,
                    as.program.instAt(pc).disasm().c_str());
        ++shown;
    }

    std::printf("\n%-28s %10s %8s %12s\n", "configuration", "cycles",
                "IPC", "L1D requests");
    for (const auto &[label, cfg] :
         {std::pair{"4-way, 1 scalar port",
                    makeConfig(4, 1, BusMode::ScalarBus)},
          std::pair{"4-way, 1 wide port",
                    makeConfig(4, 1, BusMode::WideBus)},
          std::pair{"4-way, 1 wide port + SDV",
                    makeConfig(4, 1, BusMode::WideBusSdv)}}) {
        const SimResult r = simulate(cfg, as.program);
        std::printf("%-28s %10llu %8.2f %12llu%s\n", label,
                    (unsigned long long)r.core.cycles, r.core.ipc(),
                    (unsigned long long)r.memoryRequests(),
                    r.verified ? "" : "  (VERIFY FAILED)");
    }
    std::printf("\nthe pointer chase vectorizes because the allocator "
                "laid the nodes out at a constant stride.\n");
    return 0;
}
