package core_test

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"testing"

	"github.com/airindex/airindex/internal/core"
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

const analyticPinPath = "testdata/analytic.golden"

// TestAnalyticPin pins the closed-form access and tuning predictions, in
// full float64 precision, for every built-in scheme under the
// single-channel and K-channel settings, on real broadcasts built the way
// airmodel builds them. The K-channel forms are pinned nowhere else: the
// simulation agreement tests allow 20%.
func TestAnalyticPin(t *testing.T) {
	want, err := os.ReadFile(analyticPinPath)
	if err != nil {
		t.Fatal(err)
	}
	got := analyticPin(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("%s line %d:\n got  %q\n want %q", analyticPinPath, i+1, g, w)
		}
	}
}

func analyticPin(t *testing.T) string {
	t.Helper()
	settings := []struct {
		name  string
		multi multichannel.Config
	}{
		{"single", multichannel.Config{}},
		{"replicated-k1", multichannel.Config{Channels: 1}},
		{"replicated-k2", multichannel.Config{Channels: 2}},
		{"replicated-k4", multichannel.Config{Channels: 4}},
		{"indexdata-k3-ic1", multichannel.Config{Channels: 3, Policy: multichannel.PolicyIndexData, IndexChannels: 1}},
		{"indexdata-k3-ic2", multichannel.Config{Channels: 3, Policy: multichannel.PolicyIndexData, IndexChannels: 2}},
		{"skewed-k2", multichannel.Config{Channels: 2, Policy: multichannel.PolicySkewed}},
		{"replicated-k2-switch1k", multichannel.Config{Channels: 2, SwitchCost: 1024}},
	}
	schemes := []string{
		bdisk.Name, dist.Name, flat.Name, hashing.Name, hybrid.Name, onem.Name,
		signature.Name, signature.IntegratedName, signature.MultiLevelName,
	}
	format := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	var b strings.Builder
	for _, records := range []int{2000, 7000} {
		ds, err := datagen.Generate(core.DefaultConfig(flat.Name, records).Data)
		if err != nil {
			t.Fatal(err)
		}
		for _, scheme := range schemes {
			cfg := core.DefaultConfig(scheme, records)
			bc, err := core.BuildBroadcast(ds, cfg)
			if err != nil {
				t.Fatal(err)
			}
			for _, s := range settings {
				cfg.Multi = s.multi
				at, tt := core.Analytic(cfg, bc.Params())
				fmt.Fprintf(&b, "%d %s %s %s %s\n", records, scheme, s.name, format(at), format(tt))
			}
		}
	}
	return b.String()
}
