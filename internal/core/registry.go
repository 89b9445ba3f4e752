package core

import (
	"fmt"
	"sort"
	"sync"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/bdisk"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
)

// Builder constructs a broadcast for a dataset under a run configuration.
// This is the testbed's extension point: the paper's adaptability claim
// (§3) that new data access methods can be added without touching the
// Simulator.
type Builder func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error)

// scheme is one registered access method: its builder and, for the
// built-ins, the check of its options that Config.Validate runs.
type scheme struct {
	build   Builder
	options func(Config) error
}

var (
	registryMu sync.RWMutex
	builders   = map[string]scheme{
		flat.Name: {build: func(ds *datagen.Dataset, _ Config) (access.Broadcast, error) {
			return flat.Build(ds)
		}},
		onem.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return onem.Build(ds, cfg.Onem)
		}, options: func(cfg Config) error { return cfg.Onem.Validate() }},
		dist.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return dist.Build(ds, cfg.Dist)
		}},
		hashing.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return hashing.Build(ds, cfg.Hashing)
		}, options: func(cfg Config) error { return cfg.Hashing.Validate() }},
		signature.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return signature.Build(ds, cfg.Signature)
		}, options: signatureOptions},
		signature.IntegratedName: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return signature.BuildIntegrated(ds, cfg.Signature)
		}, options: signatureOptions},
		signature.MultiLevelName: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return signature.BuildMultiLevel(ds, cfg.Signature)
		}, options: signatureOptions},
		hybrid.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return hybrid.Build(ds, cfg.Hybrid)
		}, options: func(cfg Config) error { return cfg.Hybrid.Validate() }},
		bdisk.Name: {build: func(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
			return bdisk.Build(ds, cfg.Bdisk)
		}, options: func(cfg Config) error { return cfg.Bdisk.Validate() }},
	}
)

func signatureOptions(cfg Config) error { return cfg.Signature.Validate() }

// Register adds a new access method to the testbed. It fails on duplicate
// or empty names.
func Register(name string, b Builder) error {
	if name == "" || b == nil {
		return fmt.Errorf("core: scheme name and builder must be non-empty")
	}
	registryMu.Lock()
	defer registryMu.Unlock()
	if _, dup := builders[name]; dup {
		return fmt.Errorf("core: scheme %q already registered", name)
	}
	builders[name] = scheme{build: b}
	return nil
}

// lookupScheme returns a registered scheme by name.
func lookupScheme(name string) (scheme, bool) {
	registryMu.RLock()
	s, ok := builders[name]
	registryMu.RUnlock()
	return s, ok
}

// SchemeNames lists the registered access methods, sorted.
func SchemeNames() []string {
	registryMu.RLock()
	defer registryMu.RUnlock()
	names := make([]string, 0, len(builders))
	for n := range builders {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// BuildBroadcast constructs the broadcast for a configuration.
func BuildBroadcast(ds *datagen.Dataset, cfg Config) (access.Broadcast, error) {
	s, ok := lookupScheme(cfg.Scheme)
	if !ok {
		return nil, fmt.Errorf("core: unknown scheme %q", cfg.Scheme)
	}
	return s.build(ds, cfg)
}
