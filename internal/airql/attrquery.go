package airql

import (
	"fmt"

	"github.com/airindex/airindex/internal/access"
	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/datagen"
	"github.com/airindex/airindex/internal/schemes/flat"
	"github.com/airindex/airindex/internal/sim"
)

// attrRow holds one records-axis point of the attribute-equality query
// harness; the attr(...) column metrics read it.
type attrRow struct {
	flatAccess, flatTuning float64
	sigAccess, sigTuning   float64
}

// runAttrQuery measures attribute-equality queries — the workload
// signature indexing was designed for and that key-based indexes cannot
// serve: the signature scheme filters with signature reads while flat
// broadcast must download record after record. It runs outside the
// Simulator (attribute workloads are not part of the paper's request
// model) with uniform random target records and arrivals, drawing from a
// single sim.NewRNG(seed) stream in a fixed order, so its numbers are
// bit-identical to the Go harness it replaced.
func (ex *executor) runAttrQuery() error {
	name := scriptName(ex.prog.File)
	ex.attrs = make([]attrRow, len(ex.cfgs))
	// Each point's config is the signature one (see schemeFor).
	for ri, sigCfg := range ex.cfgs {
		n := sigCfg.Data.NumRecords
		cfg := sigCfg
		cfg.Scheme = flat.Name
		ds, err := datagen.Generate(cfg.Data)
		if err != nil {
			return err
		}
		fb, err := core.BuildBroadcast(ds, cfg)
		if err != nil {
			return err
		}
		sb, err := core.BuildBroadcast(ds, sigCfg)
		if err != nil {
			return err
		}
		fq := fb.(access.AttrQuerier)
		sq := sb.(access.AttrQuerier)

		rng := sim.NewRNG(cfg.Seed)
		queries := cfg.MinRequests
		var fAcc, fTun, sAcc, sTun float64
		for q := 0; q < queries; q++ {
			rec := rng.Intn(ds.Len())
			value := ds.Record(rec).Attrs[1]
			fa := sim.Time(rng.Int63n(int64(fb.Channel().CycleLen())))
			fres, err := access.Walk(fb.Channel(), fq.NewAttrClient(1, value), fa, 0)
			if err != nil {
				return err
			}
			sa := sim.Time(rng.Int63n(int64(sb.Channel().CycleLen())))
			sres, err := access.Walk(sb.Channel(), sq.NewAttrClient(1, value), sa, 0)
			if err != nil {
				return err
			}
			if !fres.Found || !sres.Found {
				return fmt.Errorf("%s: stored attribute value not found", name)
			}
			fAcc += float64(fres.Access)
			fTun += float64(fres.Tuning)
			sAcc += float64(sres.Access)
			sTun += float64(sres.Tuning)
		}
		div := float64(queries)
		ex.attrs[ri] = attrRow{
			flatAccess: fAcc / div, flatTuning: fTun / div,
			sigAccess: sAcc / div, sigTuning: sTun / div,
		}
		ex.opt.progress("%s records=%d flatT=%.0f sigT=%.0f", name, n, fTun/div, sTun/div)
	}
	return nil
}
