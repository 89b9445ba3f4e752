package core

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
)

// Scheme is a registered access method's entry: the validator, the
// scenario language and the closed-form metrics look it up instead of
// switching on scheme names. Registering one is the paper's adaptability
// claim (§3): new data access methods are added without touching the
// Simulator.
type Scheme struct {
	// Name is the registry key that Config.Scheme selects.
	Name string
	// Aliases are further spellings the scenario language accepts for
	// Name, typically because Name does not lex as an identifier.
	Aliases []string
	// Build constructs the broadcast for a dataset under a configuration.
	Build func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error)
	// Check validates the scheme's options in a configuration; Validate
	// runs it. Nil means the scheme has no options to check.
	Check func(cfg Config) error
	// Serial marks a scheme that scans the cycle with no index to bound
	// the search, so it concludes a key is absent only after a full clean
	// pass: Validate refuses unbounded fault retries if keys may be missing.
	Serial bool
	// Model is the paper's closed form in bytes over the built broadcast's
	// Params, or nil if it has none. Analytic reads access and tuning from
	// a zero multi, and K-channel access from the active one, where NaN
	// means the model has no form for that allocation.
	Model func(data datagen.Config, multi multichannel.Config, params map[string]float64) (accessBytes, tuningBytes float64)
}

func init() {
	// The access methods every testbed starts with.
	for _, s := range []Scheme{
		{Name: flat.Name, Serial: true, Model: flat.Model,
			Build: func(ds *datagen.Dataset, _ Config) (access.Broadcast, error) { return flat.Build(ds) }},
		{Name: onem.Name, Aliases: []string{"onem"}, Model: onem.Model,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) { return onem.Build(ds, cfg.Onem) },
			Check: func(cfg Config) error { return cfg.Onem.Validate() }},
		{Name: dist.Name, Aliases: []string{"dist"}, Model: dist.Model,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) { return dist.Build(ds, cfg.Dist) }},
		{Name: hashing.Name, Aliases: []string{"hash"}, Model: hashing.Model,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) { return hashing.Build(ds, cfg.Hashing) },
			Check: func(cfg Config) error { return cfg.Hashing.Validate() }},
		{Name: signature.Name, Aliases: []string{"sig"}, Serial: true, Model: signature.Model,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
				return signature.Build(ds, cfg.Signature)
			},
			Check: signatureOptions},
		{Name: signature.IntegratedName, Aliases: []string{"sig_integrated"}, Serial: true,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
				return signature.BuildIntegrated(ds, cfg.Signature)
			},
			Check: signatureOptions},
		{Name: signature.MultiLevelName, Aliases: []string{"sig_multilevel"}, Serial: true,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
				return signature.BuildMultiLevel(ds, cfg.Signature)
			},
			Check: signatureOptions},
		{Name: hybrid.Name,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) { return hybrid.Build(ds, cfg.Hybrid) },
			Check: func(cfg Config) error { return cfg.Hybrid.Validate() }},
		{Name: bdisk.Name, Aliases: []string{"bdisk"}, Serial: true,
			Build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) { return bdisk.Build(ds, cfg.Bdisk) },
			Check: func(cfg Config) error { return cfg.Bdisk.Validate() }},
	} {
		if err := Register(s); err != nil {
			panic(err)
		}
	}
}

func signatureOptions(cfg Config) error { return cfg.Signature.Validate() }

var (
	registryMu sync.RWMutex
	// registry maps every name and alias to its entry.
	registry = map[string]*Scheme{}
)

// Register adds a new access method to the testbed. It fails on a nil
// Build, and on an empty or already registered name or alias.
func Register(s Scheme) error {
	if s.Name == "" || s.Build == nil {
		return fmt.Errorf("core: scheme name and builder must be non-empty")
	}
	spellings := append([]string{s.Name}, s.Aliases...)
	registryMu.Lock()
	defer registryMu.Unlock()
	for i, sp := range spellings {
		if _, taken := registry[sp]; taken || sp == "" || slices.Contains(spellings[:i], sp) {
			return fmt.Errorf("core: scheme %q: alias %q is empty or already registered", s.Name, sp)
		}
	}
	s.Aliases = spellings[1:] // the entry keeps its own copy
	for _, sp := range spellings {
		registry[sp] = &s
	}
	return nil
}

// LookupScheme returns the registered scheme a name or alias spells.
func LookupScheme(spelling string) (Scheme, bool) {
	if s, ok := lookupScheme(spelling, true); ok {
		return *s, true
	}
	return Scheme{}, false
}

// lookupScheme returns the entry a registered name spells, or, if alias
// is set, a name or alias.
func lookupScheme(spelling string, alias bool) (*Scheme, bool) {
	registryMu.RLock()
	s := registry[spelling]
	registryMu.RUnlock()
	return s, s != nil && (alias || s.Name == spelling)
}

// SchemeNames lists the registered access methods, sorted.
func SchemeNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	var names []string
	for sp, s := range registry {
		if sp == s.Name {
			names = append(names, sp)
		}
	}
	sort.Strings(names)
	return names
}

// BuildBroadcast constructs the broadcast for a configuration.
func BuildBroadcast(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
	s, ok := lookupScheme(cfg.Scheme, false)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", cfg.Scheme)
	}
	return s.Build(ds, cfg)
}

// Analytic returns the paper's closed-form access and tuning predictions
// in bytes for a configuration, given its built broadcast's Params, or
// NaNs where no closed form applies: a scheme without a Model, the
// skewed allocation, a nonzero switch cost (the K-channel models assume
// a free retune), and any allocation the scheme's Model has no form for.
func Analytic(cfg Config, params map[string]float64) (accessBytes, tuningBytes float64) {
	s, ok := lookupScheme(cfg.Scheme, false)
	if !ok || s.Model == nil {
		return math.NaN(), math.NaN()
	}
	accessBytes, tuningBytes = s.Model(cfg.Data, multichannel.Config{}, params)
	if !cfg.Multi.Enabled() {
		return accessBytes, tuningBytes
	}
	if cfg.Multi.SwitchCost > 0 || cfg.Multi.Policy == multichannel.PolicySkewed {
		return math.NaN(), math.NaN()
	}
	// A receiver reads the same buckets whichever channel carries them,
	// so the K-channel tuning is the single-channel tuning.
	if accessBytes, _ = s.Model(cfg.Data, cfg.Multi, params); math.IsNaN(accessBytes) {
		return math.NaN(), math.NaN()
	}
	return accessBytes, tuningBytes
}
