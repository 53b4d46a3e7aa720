package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/experiments"
)

var update = flag.Bool("update", false, "rewrite the golden files from current output")

// goldenCommands is every subcommand with a stable, deterministic
// Quick-effort output at seed 1. The files under testdata/ were
// captured from the pre-runner monolithic CLI, so these tests prove the
// runner refactor preserves CLI output byte for byte.
var goldenCommands = []string{
	"table1", "fig1", "fig2", "fig3", "unit", "shift", "sumupper",
	"exist", "nphard", "conn", "dyn", "poa", "uniform", "baseline",
	"weak", "simul", "fip", "directed", "robust", "treedyn", "wdyn",
}

func runCLI(t *testing.T, a *app, cmd string) string {
	t.Helper()
	var sb strings.Builder
	a.out = &sb
	if err := a.run(cmd); err != nil {
		t.Fatalf("%s: %v", cmd, err)
	}
	return sb.String()
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name+".golden")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o666); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		// In CI the got/want pair is uploaded as a workflow artifact
		// (GOLDEN_DIFF_DIR is set by ci.yml), so golden drifts are
		// debuggable without reproducing the run locally.
		if dir := os.Getenv("GOLDEN_DIFF_DIR"); dir != "" {
			if err := os.MkdirAll(dir, 0o777); err == nil {
				_ = os.WriteFile(filepath.Join(dir, name+".got"), []byte(got), 0o666)
				_ = os.WriteFile(filepath.Join(dir, name+".want"), want, 0o666)
			}
		}
		t.Errorf("%s: output differs from %s (run with -update after intentional changes)\n--- got ---\n%s\n--- want ---\n%s",
			name, path, got, want)
	}
}

func TestGoldenOutputs(t *testing.T) {
	for _, cmd := range goldenCommands {
		t.Run(cmd, func(t *testing.T) {
			got := runCLI(t, &app{effort: experiments.Quick, seed: 1}, cmd)
			checkGolden(t, cmd, got)
		})
	}
	t.Run("table1.csv", func(t *testing.T) {
		got := runCLI(t, &app{effort: experiments.Quick, seed: 1, csv: true}, "table1")
		checkGolden(t, "table1.csv", got)
	})
	// The registry listing is output too: pin it so commands/specs can
	// only change deliberately.
	t.Run("list", func(t *testing.T) {
		got := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "list")
		checkGolden(t, "list", got)
	})
}

// Every spec is directly addressable as a subcommand, and a spec-level
// run renders exactly that spec's slice of its bundle command.
func TestSpecNamesAreCommands(t *testing.T) {
	unit := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "unit")
	sum := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "table1-unit-sum")
	max := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "table1-unit-max")
	if sum+max != unit {
		t.Fatalf("unit != table1-unit-sum + table1-unit-max:\n%q\n%q\n%q", unit, sum, max)
	}
	// Aliases resolve to the same spec as historical command names.
	a := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "exist")
	b := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "existence")
	if a != b {
		t.Fatal("exist and existence disagree")
	}
}

// The usage text, list output and `all` sequence all derive from the
// registry; sanity-check the registry's internal consistency.
func TestRegistryConsistent(t *testing.T) {
	specs := experiments.Specs()
	seen := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Desc == "" || s.Job == nil || s.Render == nil {
			t.Fatalf("spec %q is missing metadata", s.Name)
		}
		for _, name := range append([]string{s.Name}, s.Aliases...) {
			if seen[name] {
				t.Fatalf("registry name %q is ambiguous", name)
			}
			seen[name] = true
		}
	}
	for _, c := range experiments.Commands() {
		if len(c.Specs) == 0 {
			t.Fatalf("command %q has no specs", c.Name)
		}
		for _, name := range c.Specs {
			if _, ok := experiments.SpecByName(name); !ok {
				t.Fatalf("command %q references unknown spec %q", c.Name, name)
			}
		}
	}
	all, ok := experiments.CommandByName("all")
	if !ok {
		t.Fatal("no all command")
	}
	if len(all.Specs) != len(specs) {
		t.Fatalf("all bundles %d specs, registry has %d", len(all.Specs), len(specs))
	}
}

// The golden files themselves must be deterministic: two fresh runs of
// the same command agree byte for byte (guards against accidental
// nondeterminism creeping into the parallel sweeps).
func TestGoldenDeterminism(t *testing.T) {
	for _, cmd := range []string{"table1", "dyn"} {
		a := runCLI(t, &app{effort: experiments.Quick, seed: 1}, cmd)
		b := runCLI(t, &app{effort: experiments.Quick, seed: 1}, cmd)
		if a != b {
			t.Fatalf("%s: two runs disagree", cmd)
		}
	}
}

// Different seeds must actually change the seeded sweeps (so the golden
// test is not vacuously passing on seed-independent output).
func TestSeedSensitivity(t *testing.T) {
	a := runCLI(t, &app{effort: experiments.Quick, seed: 1}, "exist")
	b := runCLI(t, &app{effort: experiments.Quick, seed: 2}, "exist")
	if a == b {
		t.Fatal("exist output is identical across seeds")
	}
}
