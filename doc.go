// Package flexftl is a simulation-backed reproduction of "Improving
// Performance and Lifetime of NAND Storage Systems Using Relaxed Program
// Sequence" (Park, Jeong, Lee, Song, Kim — DAC 2016).
//
// The library models a multi-channel MLC NAND device (2 bits per cell as in
// the paper; the same device is TLC or QLC at 3 or 4) at operation
// granularity, formalizes the paper's program-order constraint sets (FPS and
// the relaxed RPS), implements the RPS-aware flexFTL — two-phase block
// ordering, adaptive LSB/MSB page allocation, per-block parity backup with
// power-off recovery — alongside the paper's three comparison FTLs, and
// regenerates every table and figure of the evaluation.
//
// Layout:
//
//	internal/core        n-level program-sequence formalism (the paper's device-level contribution)
//	internal/nand        the NAND device model (geometry, per-level timing, order enforcement, power loss)
//	internal/vth         threshold-voltage reliability Monte-Carlo (Figure 4)
//	internal/ftl/...     the FTL kernel, policy registry and the five FTLs
//	internal/ssd         storage-system runner (buffer, backpressure, idle GC dispatch)
//	internal/workload    the five Table 1 workload generators + trace I/O
//	internal/experiments one driver per table/figure
//	cmd/flexbench        regenerate every table and figure
//	cmd/flexsim          run one FTL x workload
//	cmd/flexrecover      power-off recovery demonstration
//	examples/...         runnable API walkthroughs
//
// The root-level benchmarks (bench_test.go) attach one benchmark to each
// table and figure plus ablations of flexFTL's design choices.
package flexftl
