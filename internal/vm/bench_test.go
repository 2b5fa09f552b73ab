package vm

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/objfile"
)

// stepBenchProgram is an endless loop mixing the instruction classes that
// dominate real EM32 traces: ALU ops, a load/store pair, a compare, and a
// taken branch. It never halts, so the benchmark can call Step b.N times
// without resetting the machine.
const stepBenchProgram = `
        .text
        .func main
        li   t0, 0
        la   t1, buf
loop:   add  t0, 1, t0
        and  t0, 63, t2
        stw  t2, 0(t1)
        ldw  t3, 0(t1)
        add  t3, t2, t3
        cmpult t2, 32, t4
        beq  t4, skip
        add  t3, 1, t3
skip:   br   loop

        .data
buf:    .word 0
`

func stepBenchMachine(b *testing.B) *Machine {
	b.Helper()
	obj, err := asm.Assemble(stepBenchProgram)
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		b.Fatal(err)
	}
	return New(im, nil)
}

// BenchmarkVMStep measures the simulator's per-instruction cost: fetch,
// decode (or predecoded-cache hit), and execute of one instruction. The
// fast and slow sub-benchmarks run the identical program in one process, so
// their ratio is robust against machine-load noise in a way two separate
// runs are not; cmd/benchhist gates the ratio in CI.
func BenchmarkVMStep(b *testing.B) {
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fast", false}, {"slow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m := stepBenchMachine(b)
			m.DisableFastPath = mode.disable
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := m.Step(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// runBenchProgram is stepBenchProgram's loop bounded to 4096 passes, then a
// halt, so each Run executes the same 40,963 instructions.
const runBenchProgram = `
        .text
        .func main
        li   t0, 0
        li   t5, 4096
        la   t1, buf
loop:   add  t0, 1, t0
        and  t0, 63, t2
        stw  t2, 0(t1)
        ldw  t3, 0(t1)
        add  t3, t2, t3
        cmpult t2, 32, t4
        beq  t4, skip
        add  t3, 1, t3
skip:   cmplt t0, t5, t4
        bne  t4, loop
        sys  halt

        .data
buf:    .word 0
`

// BenchmarkVMRun measures Run from entry to halt, the path every program
// execution takes. Unlike BenchmarkVMStep it sees the block dispatch loop:
// fast runs whole blocks per dispatch call, slow (DisableFastPath) takes one
// reference step per instruction. Each iteration resets the machine to its
// entry state; ns/inst is reported alongside ns/op.
func BenchmarkVMRun(b *testing.B) {
	obj, err := asm.Assemble(runBenchProgram)
	if err != nil {
		b.Fatal(err)
	}
	im, err := objfile.Link("main", obj)
	if err != nil {
		b.Fatal(err)
	}
	for _, mode := range []struct {
		name    string
		disable bool
	}{{"fast", false}, {"slow", true}} {
		b.Run(mode.name, func(b *testing.B) {
			m := New(im, nil)
			m.DisableFastPath = mode.disable
			pc0, reg0 := m.PC, m.Reg
			var insts uint64
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PC, m.Reg, m.Halted, m.Instructions = pc0, reg0, false, 0
				if err := m.Run(); err != nil {
					b.Fatal(err)
				}
				insts += m.Instructions
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(insts), "ns/inst")
		})
	}
}
