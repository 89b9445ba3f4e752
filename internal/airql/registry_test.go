package airql_test

import (
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/airborne"
	"github.com/airindex/airindex/internal/airql"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/flat"
)

// TestOneRegistration: a scheme registered with one core.Scheme entry is
// known to every layer that consumes schemes, through that entry alone.
func TestOneRegistration(t *testing.T) {
	const name, alias = "test-one-entry", "oneentry"
	if err := register(core.Scheme{
		Name:    name,
		Aliases: []string{alias},
		Build: func(ds *datagen.Dataset, _ core.Config) (access.Broadcast, error) {
			return flat.Build(ds)
		},
		Serial: true,
		Model: func(datagen.Config, multichannel.Config, map[string]float64) (float64, float64) {
			return 1234, 567
		},
	}); err != nil {
		t.Fatal(err)
	}

	// airql resolves the alias, and the analytic(...) metrics read Model.
	prog, err := airql.Compile("t.airql", `
SWEEP records=200
SET scheme=oneentry
TABLE t x(records)
COL "a" analytic(access)
COL "t" analytic(tuning)
`)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := airql.Execute(prog, airql.Options{Fast: true})
	if err != nil {
		t.Fatal(err)
	}
	if got := tables[0].Rows[0].Cells; got[0] != 1234 || got[1] != 567 {
		t.Errorf("analytic(access), analytic(tuning) = %v, want the Model's 1234, 567", got)
	}

	// Validate reads Serial: unbounded retries over faults with keys that
	// may be missing are refused, citing the serial rule.
	_, err = airql.Compile("t.airql", "SET scheme=oneentry availability=0.5 fault.rate=0.01 records=200\n")
	if err == nil || !strings.Contains(err.Error(), `scheme "test-one-entry" is serial`) {
		t.Errorf("serial rule not applied: %v", err)
	}

	// The entry carries no byte-driven client.
	if _, err := airborne.NewClient(name, nil, airborne.Contract{}, 1); err == nil || !strings.Contains(err.Error(), "no byte-driven client") {
		t.Errorf("airborne.NewClient(%q) = %v, want the no-client error", name, err)
	}
}

// TestRegisterRefusesTakenAliases: an alias may not reuse another
// entry's name or alias.
func TestRegisterRefusesTakenAliases(t *testing.T) {
	build := func(ds *datagen.Dataset, _ core.Config) (access.Broadcast, error) { return flat.Build(ds) }
	for _, alias := range []string{flat.Name, "dist", "test-alias-twice"} {
		s := core.Scheme{Name: "test-alias-clash", Aliases: []string{alias, "test-alias-twice"}, Build: build}
		if err := core.Register(s); err == nil {
			t.Errorf("alias %q accepted", alias)
		}
	}
	if _, ok := core.LookupScheme("test-alias-clash"); ok {
		t.Error("a refused entry was registered")
	}
}

// register registers s once per test process, so the tests that use it
// survive -count.
func register(s core.Scheme) error {
	if _, done := core.LookupScheme(s.Name); done {
		return nil
	}
	return core.Register(s)
}
