package core

import (
	"flag"
	"io"
	"reflect"
	"testing"

	"repro/internal/regions"
)

func parseConfigFlags(args ...string) (*Config, error) {
	fs := flag.NewFlagSet("squash", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	c := BindFlags(fs)
	return c, fs.Parse(args)
}

// TestBindFlags: no flags give DefaultConfig(), each flag sets exactly its
// field, and an unknown coder name is a parse error.
func TestBindFlags(t *testing.T) {
	c, err := parseConfigFlags()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*c, DefaultConfig()) {
		t.Fatalf("no flags: %+v, want DefaultConfig() %+v", *c, DefaultConfig())
	}
	for _, tc := range []struct {
		args []string
		set  func(*Config)
	}{
		{[]string{"-theta", "0.001"}, func(c *Config) { c.Theta = 0.001 }},
		{[]string{"-K", "256"}, func(c *Config) { c.Regions.K = 256 }},
		{[]string{"-gamma", "0.5"}, func(c *Config) { c.Regions.Gamma = 0.5 }},
		{[]string{"-no-pack"}, func(c *Config) { c.Regions.Pack = false }},
		{[]string{"-loop-aware"}, func(c *Config) { c.Regions.Strategy = regions.StrategyLoopAware }},
		{[]string{"-interpret"}, func(c *Config) { c.Interpret = true }},
		{[]string{"-no-buffersafe"}, func(c *Config) { c.BufferSafe = false }},
		{[]string{"-no-unswitch"}, func(c *Config) { c.Unswitch = false }},
		{[]string{"-mtf"}, func(c *Config) { c.MTF = true }},
		{[]string{"-coder", "lz"}, func(c *Config) { c.Coder = CoderLZ }},
		{[]string{"-coder", "stream"}, func(*Config) {}},
		{[]string{"-compile-time-stubs"}, func(c *Config) { c.CompileTimeRestoreStubs = true }},
		{[]string{"-stub-capacity", "4"}, func(c *Config) { c.StubCapacity = 4 }},
		{[]string{"-workers", "3"}, func(c *Config) { c.Workers = 3 }},
		{[]string{"-no-pack=false", "-loop-aware=false"}, func(*Config) {}},
	} {
		got, err := parseConfigFlags(tc.args...)
		if err != nil {
			t.Errorf("%v: %v", tc.args, err)
			continue
		}
		want := DefaultConfig()
		tc.set(&want)
		if !reflect.DeepEqual(*got, want) {
			t.Errorf("%v: %+v, want %+v", tc.args, *got, want)
		}
	}
	if _, err := parseConfigFlags("-coder", "bogus"); err == nil {
		t.Error("-coder bogus parsed without error")
	}
}
