package core

import (
	"flag"
	"fmt"
	"strconv"

	"repro/internal/regions"
)

// BindFlags registers the squash-configuration flags that cmd/squash,
// squashd -connect and squashprofd -register share on fs, and returns the
// Config they set. It starts from DefaultConfig(), so a command line that
// sets none of them squashes at the paper's operating point.
func BindFlags(fs *flag.FlagSet) *Config {
	c := DefaultConfig()
	fs.Float64Var(&c.Theta, "theta", c.Theta, "cold-code threshold θ (fraction of dynamic instructions)")
	fs.IntVar(&c.Regions.K, "K", c.Regions.K, "runtime buffer bound in bytes")
	fs.Float64Var(&c.Regions.Gamma, "gamma", c.Regions.Gamma, "assumed compression factor for region selection")
	fs.BoolFunc("no-pack", "disable region packing", clearOn(&c.Regions.Pack))
	fs.BoolFunc("loop-aware", "seed regions from natural loops (§9 extension)", func(v string) error {
		on, err := strconv.ParseBool(v)
		c.Regions.Strategy = regions.StrategyDFS
		if on {
			c.Regions.Strategy = regions.StrategyLoopAware
		}
		return err
	})
	fs.BoolVar(&c.Interpret, "interpret", c.Interpret, "interpret compressed code in place instead of decompressing (§8 alternative)")
	fs.BoolFunc("no-buffersafe", "disable buffer-safe call analysis", clearOn(&c.BufferSafe))
	fs.BoolFunc("no-unswitch", "disable jump-table unswitching", clearOn(&c.Unswitch))
	fs.BoolVar(&c.MTF, "mtf", c.MTF, "use the move-to-front stream coder variant")
	fs.Func("coder", "region coder: stream (split-stream, §3; the default) or lz (dictionary, §8)", func(v string) error {
		switch v {
		case "stream":
			c.Coder = CoderStream
		case "lz":
			c.Coder = CoderLZ
		default:
			return fmt.Errorf("unknown coder %q (want stream or lz)", v)
		}
		return nil
	})
	fs.BoolVar(&c.CompileTimeRestoreStubs, "compile-time-stubs", c.CompileTimeRestoreStubs, "materialize restore stubs statically (ablation)")
	fs.IntVar(&c.StubCapacity, "stub-capacity", c.StubCapacity, "runtime restore-stub slots")
	fs.IntVar(&c.Workers, "workers", c.Workers, "worker goroutines for the squash pipeline (0 = one per CPU, 1 = serial); output is byte-identical at any count")
	return &c
}

// clearOn returns a boolean flag's setter that stores the negation of the
// flag's value in *b, for the -no-* switches.
func clearOn(b *bool) func(string) error {
	return func(v string) error {
		on, err := strconv.ParseBool(v)
		*b = !on
		return err
	}
}
