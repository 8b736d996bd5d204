package neon

// NEON engine issue costs in ticks (10 ticks = 1 CPU cycle; the NEON
// pipeline runs at core clock on the A8-class design of Fig. 3). They
// model:
//
//   - a deeply pipelined engine that sustains one vector operation per
//     cycle once filled;
//   - a 16-entry instruction queue so dispatch from the core never
//     stalls in our single-threaded scenario;
//   - vector loads/stores whose cache latency is charged by the shared
//     mem.Hierarchy, plus a small issue cost here.
const (
	OpIssueTicks  = 10 // per vector arithmetic/logic operation: 1 cycle/op steady state
	MemIssueTicks = 10 // per vector load/store, before cache latency
	DupTicks      = 20 // scalar→vector transfer (vdup) through the ARM→NEON data queue
)
