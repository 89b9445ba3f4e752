package airql

import (
	"github.com/airindex/airindex/internal/analytical"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/units"
	"github.com/airindex/airindex/internal/wire"
)

// Analytic returns the paper's model predictions in bytes for a finished
// run, or NaNs when the paper gives no closed form for the setting. The
// analytic(access) / analytic(tuning) column metrics and the agreement
// tests evaluate through it.
func Analytic(cfg core.Config, res *core.Result) (accessBytes, tuningBytes float64) {
	if cfg.Multi.Enabled() {
		return analyticMulti(cfg, res)
	}
	nan := func() (float64, float64) { return nanF, nanF }
	p := res.Params
	switch cfg.Scheme {
	case flat.Name:
		bucket := float64(wire.HeaderSize + units.Bytes(cfg.Data.RecordSize))
		return analytical.FlatAccess(cfg.Data.NumRecords) * bucket,
			analytical.FlatTuning(cfg.Data.NumRecords) * bucket
	case dist.Name:
		tp := analytical.TreeParams{
			Fanout:     int(p["fanout"]),
			Levels:     analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
			Replicated: int(p["r"]),
			Records:    cfg.Data.NumRecords,
		}
		return analytical.DistAccess(tp) * p["bucket_size"],
			analytical.DistTuning(tp) * p["bucket_size"]
	case onem.Name:
		tp := analytical.TreeParams{
			Fanout:  int(p["fanout"]),
			Levels:  analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
			Records: cfg.Data.NumRecords,
		}
		return analytical.OneMAccess(tp, int(p["m"])) * p["bucket_size"],
			analytical.OneMTuning(tp) * p["bucket_size"]
	case hashing.Name:
		hp := analytical.HashParams{
			Allocated: p["Na"],
			Colliding: p["Nc"],
			Records:   float64(cfg.Data.NumRecords),
		}
		// Cycle buckets = Na + Nc (every record plus one filler per empty
		// position), all uniform size.
		bucket := float64(res.CycleBytes) / (p["Na"] + p["Nc"])
		return analytical.HashingAccess(hp) * bucket,
			analytical.HashingTuning(hp) * bucket
	case signature.Name:
		dataBytes := float64(wire.HeaderSize + units.Bytes(cfg.Data.RecordSize))
		sigBytes := float64(wire.HeaderSize + units.Bytes(cfg.Signature.SigBytes))
		fields := cfg.Data.NumAttributes + 1
		fd := analytical.SignatureExpectedFalseDrops(cfg.Data.NumRecords,
			cfg.Signature.SigBytes, cfg.Signature.BitsPerField, fields)
		return analytical.SignatureAccess(cfg.Data.NumRecords, dataBytes, sigBytes),
			analytical.SignatureTuning(cfg.Data.NumRecords, dataBytes, sigBytes, fd)
	default:
		// Extension schemes (bdisk, hybrid, the signature variants) have
		// no closed form in the paper; the registry accepts any name, so
		// an unlisted scheme is expected here, not a bug.
		return nan()
	}
}

var nanF = func() float64 {
	var z float64
	return z / z // quiet NaN without importing math here
}()

// analyticMulti returns the K-channel model predictions in bytes for a
// finished multichannel run, or NaNs where no closed form applies (the
// skewed policy, and nonzero switch costs — the models assume a free
// retune; the walker's cost gating keeps the simulated curves between the
// free-switch and single-channel predictions).
func analyticMulti(cfg core.Config, res *core.Result) (accessBytes, tuningBytes float64) {
	nan := func() (float64, float64) { return nanF, nanF }
	if cfg.Multi.SwitchCost > 0 {
		return nan()
	}
	// Tuning (and the serial schemes' access) follow the single-channel
	// forms under every allocation.
	single := cfg
	single.Multi = multichannel.Config{}
	at1, tt1 := Analytic(single, res)

	p := res.Params
	k := cfg.Multi.Channels
	switch cfg.Multi.Policy {
	case multichannel.PolicyReplicated:
		switch cfg.Scheme {
		case flat.Name, signature.Name:
			// Serial scans never doze; replication gains them nothing.
			return at1, tt1
		case onem.Name:
			tp := analytical.TreeParams{
				Fanout:  int(p["fanout"]),
				Levels:  analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
				Records: cfg.Data.NumRecords,
			}
			return analytical.OneMAccessK(tp, int(p["m"]), k) * p["bucket_size"], tt1
		case dist.Name:
			tp := analytical.TreeParams{
				Fanout:     int(p["fanout"]),
				Levels:     analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
				Replicated: int(p["r"]),
				Records:    cfg.Data.NumRecords,
			}
			return analytical.DistAccessK(tp, int(p["segments"]), k) * p["bucket_size"], tt1
		case hashing.Name:
			hp := analytical.HashParams{
				Allocated: p["Na"],
				Colliding: p["Nc"],
				Records:   float64(cfg.Data.NumRecords),
			}
			bucket := float64(res.CycleBytes) / (p["Na"] + p["Nc"])
			return analytical.HashingAccessK(hp, k) * bucket, tt1
		default:
			return nan()
		}
	case multichannel.PolicyIndexData:
		ic := cfg.Multi.IndexChannels
		if ic == 0 {
			ic = 1
		}
		switch cfg.Scheme {
		case onem.Name:
			tp := analytical.TreeParams{
				Fanout:  int(p["fanout"]),
				Levels:  analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
				Records: cfg.Data.NumRecords,
			}
			return analytical.OneMIndexDataAccess(tp, k-ic) * p["bucket_size"], tt1
		case dist.Name:
			tp := analytical.TreeParams{
				Fanout:     int(p["fanout"]),
				Levels:     analytical.LevelsFor(int(p["fanout"]), cfg.Data.NumRecords),
				Replicated: int(p["r"]),
				Records:    cfg.Data.NumRecords,
			}
			return analytical.DistIndexDataAccess(tp, int(p["segments"]), k-ic) * p["bucket_size"], tt1
		default:
			return nan()
		}
	default:
		return nan()
	}
}
