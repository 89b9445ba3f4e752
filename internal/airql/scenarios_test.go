package airql

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"reflect"
	"testing"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/scenarios"
)

// The paper-shape and family tests: each runs one embedded scenario
// under the fast profile and pins the qualitative results the paper (or
// the family's design note) claims.

var fast = Options{Fast: true}

// fastRuns memoizes runs under the plain fast profile: several tests
// read the same family's tables, and a run is a pure function of its
// options.
var fastRuns = map[string][]*Table{}

// runScenario compiles and executes one embedded scenario script.
func runScenario(t *testing.T, name string, opt Options) []*Table {
	t.Helper()
	plain := reflect.DeepEqual(opt, fast)
	if tables, ok := fastRuns[name]; ok && plain {
		return tables
	}
	file := name + ".airql"
	src, err := scenarios.Source(file)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Compile(file, src)
	if err != nil {
		t.Fatal(err)
	}
	tables, err := Execute(prog, opt)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	if plain {
		fastRuns[name] = tables
	}
	return tables
}

// settings parses session-wide -set assignments.
func settings(t *testing.T, args ...string) []Setting {
	t.Helper()
	s, err := ParseSettings(args)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// csvBytes renders every table of one scenario run to CSV.
func csvBytes(t *testing.T, name string, opt Options) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, tb := range runScenario(t, name, opt) {
		if err := tb.WriteCSV(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func col(t *testing.T, tb *Table, name string) []float64 {
	t.Helper()
	v, ok := tb.Column(name)
	if !ok {
		t.Fatalf("table %s has no column %q (have %v)", tb.ID, name, tb.Columns)
	}
	return v
}

func increasing(v []float64) bool {
	for i := 1; i < len(v); i++ {
		if v[i] <= v[i-1] {
			return false
		}
	}
	return true
}

func within(a, b, relTol float64) bool {
	if b == 0 {
		return a == 0
	}
	return math.Abs(a-b)/math.Abs(b) <= relTol
}

// TestTable1 pins results/table1.csv, the paper's Table 1 of simulation
// settings: every cell derives from the full profile's BaseConfig and
// record sweep, so a drift in either shows here.
func TestTable1(t *testing.T) {
	paper := Options{}
	cfg := paper.BaseConfig("distributed", 34000)
	sweep := paper.RecordSweep()
	tb := &Table{
		XLabel: "#",
		Columns: []string{
			"records_min", "records_max", "record_bytes", "key_bytes",
			"round_requests", "confidence", "accuracy", "max_requests",
		},
	}
	tb.AddRow(1,
		float64(sweep[0]), float64(sweep[len(sweep)-1]),
		float64(cfg.Data.RecordSize), float64(cfg.Data.KeySize),
		float64(cfg.RoundSize), cfg.Confidence, cfg.Accuracy,
		float64(cfg.MaxRequests))
	for _, c := range []struct {
		col  string
		want float64
	}{
		{"records_min", 7000},
		{"records_max", 34000},
		{"record_bytes", 500},
		{"round_requests", 500},
		{"confidence", 0.99},
		{"accuracy", 0.01},
		{"max_requests", 60000},
	} {
		if v := col(t, tb, c.col); v[0] != c.want {
			t.Errorf("%s = %v, want %v (paper constant)", c.col, v[0], c.want)
		}
	}
	var got bytes.Buffer
	if err := tb.WriteCSV(&got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("../../results/table1.csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want) {
		t.Errorf("results/table1.csv drifted from the paper profile:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
	}
}

// TestTable1FastProfileStillPaperConstants: the fast profile relaxes only
// the stopping rule and the record sweep. The data geometry and the
// confidence level it runs at stay Table 1's, and the paper profile's
// stopping rule is untouched by it.
func TestTable1FastProfileStillPaperConstants(t *testing.T) {
	fastCfg := fast.BaseConfig("distributed", 34000)
	if fastCfg.Data.RecordSize != 500 || fastCfg.Data.KeySize != 25 {
		t.Errorf("fast profile geometry = %d/%d bytes, want 500/25 (paper constant)",
			fastCfg.Data.RecordSize, fastCfg.Data.KeySize)
	}
	if fastCfg.Confidence != 0.99 {
		t.Errorf("fast profile confidence = %v, want 0.99 (paper constant)", fastCfg.Confidence)
	}
	paper := (Options{}).BaseConfig("distributed", 34000)
	if paper.RoundSize != 500 || paper.Accuracy != 0.01 || paper.MaxRequests != 60000 {
		t.Errorf("paper profile stopping rule = %d/%v/%d, want 500/0.01/60000",
			paper.RoundSize, paper.Accuracy, paper.MaxRequests)
	}
	if fastCfg.MaxRequests >= paper.MaxRequests || fastCfg.Accuracy <= paper.Accuracy {
		t.Errorf("fast profile should relax the stopping rule: max %d vs %d, accuracy %v vs %v",
			fastCfg.MaxRequests, paper.MaxRequests, fastCfg.Accuracy, paper.Accuracy)
	}
}

// TestOptionsShardsForwarded: the Shards option reaches every point's
// core config.
func TestOptionsShardsForwarded(t *testing.T) {
	opt := Options{Fast: true, Shards: 4}
	if cfg := opt.BaseConfig("flat", 100); cfg.Shards != 4 {
		t.Fatalf("baseConfig dropped Shards: %+v", cfg.Shards)
	}
	if cfg := (Options{Fast: true}).BaseConfig("flat", 100); cfg.Shards != 1 {
		t.Fatalf("default config should stay single-shard, got %d", cfg.Shards)
	}
}

// TestFig4Shapes pins the paper's Figure 4 qualitative results in fast
// mode: access ordering flat < signature < distributed < hashing, tuning
// ordering hashing < distributed < signature, simulation close to the
// analytical model, linear growth for the serial schemes, near-flat
// hashing tuning.
func TestFig4Shapes(t *testing.T) {
	ts := runScenario(t, "fig4", fast)
	acc, tun := ts[0], ts[1]

	flatS := col(t, acc, "flat (S)")
	sigS := col(t, acc, "signature (S)")
	distS := col(t, acc, "distributed (S)")
	hashS := col(t, acc, "hashing (S)")
	for i := range flatS {
		if !(flatS[i] < sigS[i] && sigS[i] < distS[i] && distS[i] < hashS[i]) {
			t.Errorf("row %d: access ordering broken: flat=%.0f sig=%.0f dist=%.0f hash=%.0f",
				i, flatS[i], sigS[i], distS[i], hashS[i])
		}
	}
	if !increasing(flatS) || !increasing(sigS) || !increasing(hashS) {
		t.Error("access times should grow with record count")
	}

	hashT := col(t, tun, "hashing (S)")
	distT := col(t, tun, "distributed (S)")
	sigT := col(t, tun, "signature (S)")
	for i := range hashT {
		// At the fast-mode scale the shallow tree puts hashing and
		// distributed within a percent of each other; the strict ordering
		// emerges at the paper's 7,000+ records (see EXPERIMENTS.md).
		if !(hashT[i] < 1.05*distT[i] && distT[i] < sigT[i]) {
			t.Errorf("row %d: tuning ordering broken: hash=%.0f dist=%.0f sig=%.0f",
				i, hashT[i], distT[i], sigT[i])
		}
	}
	if !increasing(sigT) {
		t.Error("signature tuning should grow linearly with record count")
	}
	// Hashing tuning stays within a couple of buckets across the sweep.
	if hashT[len(hashT)-1]-hashT[0] > 2*518 {
		t.Errorf("hashing tuning not flat: %v", hashT)
	}

	// Simulation vs analytical agreement (the paper: "the simulation
	// results match the analytical results very well").
	for _, pair := range [][2]string{
		{"flat (S)", "flat (A)"},
		{"signature (S)", "signature (A)"},
		{"distributed (S)", "distributed (A)"},
		{"hashing (S)", "hashing (A)"},
	} {
		s := col(t, acc, pair[0])
		a := col(t, acc, pair[1])
		for i := range s {
			if !within(s[i], a[i], 0.2) {
				t.Errorf("%s row %d: sim %.0f vs analytical %.0f beyond 20%%", pair[0], i, s[i], a[i])
			}
		}
	}
}

// TestFig5Shapes pins Figure 5: hashing access nearly availability-
// independent; tree schemes' access improves as availability falls while
// flat/signature degrade; tree schemes' tuning is best at low
// availability, hashing best at high.
func TestFig5Shapes(t *testing.T) {
	ts := runScenario(t, "fig5", fast)
	acc, tun := ts[0], ts[1]
	rows := len(acc.Rows) // availability 0 ... 100
	last := rows - 1

	flatA := col(t, acc, "flat")
	sigA := col(t, acc, "signature")
	onemA := col(t, acc, "(1,m)")
	distA := col(t, acc, "distributed")
	hashA := col(t, acc, "hashing")

	// Hashing: little impact (within 20% across the whole sweep).
	for i := range hashA {
		if !within(hashA[i], hashA[last], 0.2) {
			t.Errorf("hashing access varies with availability: %v", hashA)
		}
	}
	// Flat and signature: worst at 0%, best at 100%.
	if flatA[0] <= flatA[last] || sigA[0] <= sigA[last] {
		t.Error("serial schemes should degrade as availability falls")
	}
	// Tree schemes: better at 0% than at 100%.
	if onemA[0] >= onemA[last] || distA[0] >= distA[last] {
		t.Error("tree schemes should improve as availability falls")
	}
	// At 0% tree schemes beat everything on access.
	if !(distA[0] < hashA[0] && onemA[0] < hashA[0] && distA[0] < flatA[0] && distA[0] < sigA[0]) {
		t.Errorf("at 0%% availability tree schemes should win access: dist=%.0f onem=%.0f hash=%.0f flat=%.0f sig=%.0f",
			distA[0], onemA[0], hashA[0], flatA[0], sigA[0])
	}

	sigT := col(t, tun, "signature")
	onemT := col(t, tun, "(1,m)")
	distT := col(t, tun, "distributed")
	hashT := col(t, tun, "hashing")
	// Tuning: tree schemes' grows with availability; signature's falls.
	if onemT[0] >= onemT[last] || distT[0] >= distT[last] {
		t.Error("tree tuning should grow with availability")
	}
	if sigT[0] <= sigT[last] {
		t.Error("signature tuning should fall with availability")
	}
	// Tree schemes beat hashing at 0%; hashing wins at 100%.
	if !(onemT[0] < hashT[0] && distT[0] < hashT[0]) {
		t.Errorf("at 0%% availability tree tuning should beat hashing: onem=%.0f dist=%.0f hash=%.0f",
			onemT[0], distT[0], hashT[0])
	}
	if !(hashT[last] < 1.05*onemT[last] && hashT[last] < 1.05*distT[last] && hashT[last] < sigT[last]) {
		t.Errorf("at 100%% availability hashing tuning should win: hash=%.0f onem=%.0f dist=%.0f sig=%.0f",
			hashT[last], onemT[last], distT[last], sigT[last])
	}
}

// TestFig6Shapes pins Figure 6: the record/key ratio matters mostly for
// the tree schemes — huge access/tuning at ratio 5, approaching the others
// as the ratio grows — while flat/signature/hashing stay nearly flat.
func TestFig6Shapes(t *testing.T) {
	ts := runScenario(t, "fig6", fast)
	acc, tun := ts[0], ts[1]
	last := len(acc.Rows) - 1

	onemA := col(t, acc, "(1,m)")
	distA := col(t, acc, "distributed")
	flatA := col(t, acc, "flat")
	hashA := col(t, acc, "hashing")

	// Strong ratio dependence for tree schemes only. Distributed indexing
	// adapts its replication depth, so its drop is shallower than (1,m)'s.
	if onemA[0] < 1.5*onemA[last] || distA[0] < 1.3*distA[last] {
		t.Errorf("tree access should fall sharply with ratio: onem %v dist %v", onemA, distA)
	}
	for i := range flatA {
		if !within(flatA[i], flatA[last], 0.15) || !within(hashA[i], hashA[last], 0.25) {
			t.Errorf("flat/hashing access should be nearly ratio-independent")
			break
		}
	}
	// Tree schemes cross below hashing at large ratios.
	if !(distA[last] < hashA[last] && onemA[last] < hashA[last]) {
		t.Errorf("at ratio 100 tree schemes should beat hashing: dist=%.0f onem=%.0f hash=%.0f",
			distA[last], onemA[last], hashA[last])
	}

	distT := col(t, tun, "distributed")
	onemT := col(t, tun, "(1,m)")
	hashT := col(t, tun, "hashing")
	// Tree tuning falls toward hashing's flat low line as ratio grows.
	if distT[0] <= distT[last] || onemT[0] <= onemT[last] {
		t.Errorf("tree tuning should fall with ratio: dist %v onem %v", distT, onemT)
	}
	// Paper §5.2: at large ratios the tree schemes "exhibit similar
	// performance to hashing" — allow a 10% margin around the floor.
	if !(hashT[last] <= 1.1*distT[last] && hashT[last] <= 1.1*onemT[last]) {
		t.Errorf("hashing tuning should stay at or near the floor: hash=%.0f dist=%.0f onem=%.0f",
			hashT[last], distT[last], onemT[last])
	}
}

func TestAblations(t *testing.T) {
	for _, id := range []string{"ablate-r", "ablate-m", "ablate-sig", "ablate-hash", "ablate-errors"} {
		id := id
		t.Run(id, func(t *testing.T) {
			ts := runScenario(t, id, fast)
			if len(ts) != 1 || len(ts[0].Rows) < 2 {
				t.Fatalf("%s produced no usable table", id)
			}
		})
	}
}

func TestAblateSigTradeoff(t *testing.T) {
	ts := runScenario(t, "ablate-sig", fast)
	tb := ts[0]
	accS := col(t, tb, "access (S)")
	probes := col(t, tb, "mean_probes")
	// Access grows with signature length (longer cycle).
	if accS[len(accS)-1] <= accS[0] {
		t.Errorf("access should grow with signature length: %v", accS)
	}
	// Probes (false drops) shrink as signatures grow.
	if probes[0] <= probes[len(probes)-1] {
		t.Errorf("probes should fall with signature length: %v", probes)
	}
}

func TestAblateErrorsMonotone(t *testing.T) {
	ts := runScenario(t, "ablate-errors", fast)
	tb := ts[0]
	restarts := col(t, tb, "distributed restarts/req")
	if restarts[0] != 0 {
		t.Errorf("zero error rate should have zero restarts: %v", restarts)
	}
	if !increasing(restarts) {
		t.Errorf("restarts should grow with error rate: %v", restarts)
	}
	tunD := col(t, tb, "distributed tuning")
	if tunD[len(tunD)-1] <= tunD[0] {
		t.Errorf("distributed tuning should degrade with errors: %v", tunD)
	}
}

func TestExtSignatureFamily(t *testing.T) {
	ts := runScenario(t, "ext-signatures", fast)
	tb := ts[0]
	simpleT := col(t, tb, "signature tuning")
	mlT := col(t, tb, "signature-multilevel tuning")
	hyT := col(t, tb, "hybrid tuning")
	distT := col(t, tb, "distributed tuning")
	for i := range simpleT {
		// Group skipping must beat the simple scheme; the hybrid's tree
		// descent must beat every pure signature scheme and sit within a
		// small factor of the pure tree.
		if mlT[i] >= simpleT[i] {
			t.Errorf("row %d: multilevel tuning %.0f not below simple %.0f", i, mlT[i], simpleT[i])
		}
		if hyT[i] >= mlT[i] {
			t.Errorf("row %d: hybrid tuning %.0f not below multilevel %.0f", i, hyT[i], mlT[i])
		}
		if hyT[i] > 5*distT[i] {
			t.Errorf("row %d: hybrid tuning %.0f too far above distributed %.0f", i, hyT[i], distT[i])
		}
	}
}

func TestExtBroadcastDisksSkewCrossover(t *testing.T) {
	ts := runScenario(t, "ext-bdisk", fast)
	tb := ts[0]
	ratio := col(t, tb, "bdisk/flat ratio")
	// Uniform demand: broadcast disks pay for the repeated hot slots.
	if ratio[0] <= 1 {
		t.Errorf("uniform workload should favour flat, ratio %v", ratio[0])
	}
	// Heavy skew: broadcast disks win outright.
	last := len(ratio) - 1
	if ratio[last] >= 1 {
		t.Errorf("heavy skew should favour broadcast disks, ratio %v", ratio[last])
	}
	// Monotone improvement with skew.
	for i := 1; i < len(ratio); i++ {
		if ratio[i] >= ratio[i-1] {
			t.Errorf("ratio should fall with skew: %v", ratio)
			break
		}
	}
}

func TestExtMultiAttribute(t *testing.T) {
	ts := runScenario(t, "ext-multiattr", fast)
	tb := ts[0]
	ratio := col(t, tb, "tuning ratio")
	for i, r := range ratio {
		// Signatures should filter attribute queries an order of magnitude
		// more cheaply than flat record scans.
		if r > 0.15 {
			t.Errorf("row %d: signature/flat tuning ratio %.3f, want < 0.15", i, r)
		}
	}
	fAcc := col(t, tb, "flat access")
	sAcc := col(t, tb, "signature access")
	for i := range fAcc {
		// Access time stays comparable: the signature cycle is only ~4% longer.
		if sAcc[i] > 1.2*fAcc[i] {
			t.Errorf("row %d: signature access %.0f too far above flat %.0f", i, sAcc[i], fAcc[i])
		}
	}
}

// TestZeroRateFaultsReproduceFigures is the fault layer's differential
// anchor: a zero-rate fault model set session-wide reproduces the
// existing figure tables byte for byte, because the fault substream never touches
// the arrival RNG and zero-rate injection never fires.
func TestZeroRateFaultsReproduceFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig4 and fig5 twice")
	}
	withFaults := fast
	withFaults.Settings = settings(t, "fault.model=drop", "fault.rate=0")
	for _, id := range []string{"fig4", "fig5"} {
		base := csvBytes(t, id, fast)
		faulted := csvBytes(t, id, withFaults)
		if !bytes.Equal(base, faulted) {
			t.Errorf("%s: zero-rate faults changed the CSV bytes:\nbase:\n%s\nfaulted:\n%s", id, base, faulted)
		}
	}
}

// TestFaultSweepShapes pins the faults family's qualitative results:
// access and tuning degrade monotonically with the error rate for every
// scheme, the zero-rate row has zero recovery cost, and nonzero rates
// show restarts.
func TestFaultSweepShapes(t *testing.T) {
	ts := runScenario(t, "faults", fast)
	if len(ts) != 3 || ts[0].ID != "faults-at" || ts[1].ID != "faults-tt" || ts[2].ID != "faults-recovery" {
		t.Fatalf("faults family shape wrong: %v", ts)
	}
	acc, tun, rec := ts[0], ts[1], ts[2]
	last := len(acc.Rows) - 1

	nonDecreasing := func(v []float64) bool {
		for i := 1; i < len(v); i++ {
			if v[i] < v[i-1] {
				return false
			}
		}
		return true
	}
	for _, s := range []string{"flat", "signature", "(1,m)", "distributed", "hashing"} {
		a := col(t, acc, s)
		if !nonDecreasing(a) {
			t.Errorf("%s access not monotone in error rate: %v", s, a)
		}
		if a[last] <= a[0] {
			t.Errorf("%s access shows no degradation at 10%% loss: %v", s, a)
		}
		if s != "flat" {
			if tt := col(t, tun, s); !nonDecreasing(tt) {
				t.Errorf("%s tuning not monotone in error rate: %v", s, tt)
			}
		}
		restarts := col(t, rec, s+" restarts/req")
		wasted := col(t, rec, s+" wasted/req")
		if restarts[0] != 0 || wasted[0] != 0 {
			t.Errorf("%s: zero-rate row has recovery cost: restarts %v wasted %v", s, restarts[0], wasted[0])
		}
		if restarts[last] == 0 || wasted[last] == 0 {
			t.Errorf("%s: 10%% loss shows no recovery cost", s)
		}
		if !nonDecreasing(restarts) {
			t.Errorf("%s restarts/req not monotone: %v", s, restarts)
		}
	}
}

// TestFaultSweepDeterministic: the family is a pure function of
// (Seed, Shards, rates) — repeated runs produce identical tables, sharded
// or not.
func TestFaultSweepDeterministic(t *testing.T) {
	opt := fast
	opt.Shards = 2
	a := runScenario(t, "faults", opt)
	b := runScenario(t, "faults", opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated faults sweep differed")
	}
}

// TestAblateErrorsIgnoresSessionFaults: the ablation sets its own fault
// model, which replaces any session-wide fault setting wholesale, so
// `airql -set fault.model=... scenarios/*.airql` reproduces its table.
func TestAblateErrorsIgnoresSessionFaults(t *testing.T) {
	opt := fast
	opt.Settings = settings(t, "fault.model=iid", "fault.rate=0.01")
	if got, want := csvBytes(t, "ablate-errors", opt), csvBytes(t, "ablate-errors", fast); !bytes.Equal(got, want) {
		t.Errorf("session faults changed the ablation:\ngot:\n%s\nwant:\n%s", got, want)
	}
}

// TestAblateErrorsMatchesFaultsSweep ties the ablation to the faults
// family, which runs the same drop model over the same records: at every
// rate the two sweeps share, each ablation cell equals the faults-at,
// faults-tt or faults-recovery cell of the same scheme and metric.
func TestAblateErrorsMatchesFaultsSweep(t *testing.T) {
	abl := runScenario(t, "ablate-errors", fast)[0]
	fam := map[string]*Table{}
	for _, tb := range runScenario(t, "faults", fast) {
		fam[tb.ID] = tb
	}
	cells := 0
	for _, scheme := range []string{"distributed", "signature"} {
		for _, m := range []struct{ ablation, table, column string }{
			{scheme + " access", "faults-at", scheme},
			{scheme + " tuning", "faults-tt", scheme},
			{scheme + " restarts/req", "faults-recovery", scheme + " restarts/req"},
		} {
			got := col(t, abl, m.ablation)
			want := col(t, fam[m.table], m.column)
			for i, row := range abl.Rows {
				for j, frow := range fam[m.table].Rows {
					// faults-* plot the rate in percent.
					if frow.X != row.X*100 {
						continue
					}
					cells++
					if got[i] != want[j] {
						t.Errorf("rate %v: ablation %q = %v, %s %q = %v", row.X, m.ablation, got[i], m.table, m.column, want[j])
					}
				}
			}
		}
	}
	if want := 6 * len(abl.Rows); cells != want {
		t.Fatalf("compared %d cells, want %d: every ablation rate must appear in the faults sweep", cells, want)
	}
}

// TestMultiK1ReproducesFigures is the subsystem's differential anchor
// (mirrored by the CI gate): a one-channel replicated allocation with
// zero switch cost, set session-wide like the CLI's -set flags,
// reproduces the existing figure tables byte for byte.
func TestMultiK1ReproducesFigures(t *testing.T) {
	if testing.Short() {
		t.Skip("runs fig4 and fig5 twice")
	}
	withMulti := fast
	withMulti.Settings = settings(t, "multi.channels=1", "multi.policy=replicated")
	for _, id := range []string{"fig4", "fig5"} {
		base := csvBytes(t, id, fast)
		multi := csvBytes(t, id, withMulti)
		if !bytes.Equal(base, multi) {
			t.Errorf("%s: K=1 replicated allocation changed the CSV bytes:\nbase:\n%s\nmulti:\n%s", id, base, multi)
		}
	}
}

// TestMultichSweepShapes pins the family's qualitative results: the
// dozing schemes' access time falls with K on free switches, a nonzero
// switch cost never improves a row, the serial schemes stay flat, and
// tuning time stays flat in K for every scheme.
func TestMultichSweepShapes(t *testing.T) {
	ts := runScenario(t, "multich", fast)
	if len(ts) != 2 || ts[0].ID != "multich-at" || ts[1].ID != "multich-tt" {
		t.Fatalf("multich family shape wrong: %v", ts)
	}
	acc, tun := ts[0], ts[1]
	last := len(acc.Rows) - 1

	for _, s := range []string{"(1,m)", "distributed", "hashing"} {
		free := col(t, acc, s+" sw0")
		if free[last] >= 0.8*free[0] {
			t.Errorf("%s: K=8 free-switch access %v not clearly below K=1 %v", s, free[last], free[0])
		}
		costly := col(t, acc, s+" sw1024")
		for i := range free {
			if costly[i] < free[i]*0.98 {
				t.Errorf("%s row %d: switch cost improved access: %v < %v", s, i, costly[i], free[i])
			}
		}
		tt := col(t, tun, s+" sw0")
		for i := 1; i < len(tt); i++ {
			if !within(tt[i], tt[0], 0.05) {
				t.Errorf("%s: tuning not flat in K: %v", s, tt)
			}
		}
	}
	for _, s := range []string{"flat", "signature"} {
		free := col(t, acc, s+" sw0")
		for i := 1; i < len(free); i++ {
			if !within(free[i], free[0], 0.05) {
				t.Errorf("%s: serial scheme access varies with K: %v", s, free)
			}
		}
	}
}

// TestMultichSweepDeterministic: the family is a pure function of
// (Seed, Shards, allocation) — repeated runs produce identical tables.
func TestMultichSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the multich sweep twice")
	}
	opt := fast
	opt.Shards = 2
	a := runScenario(t, "multich", opt)
	b := runScenario(t, "multich", opt)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("repeated multich sweep differed")
	}
}

// TestMultichAgreesWithAnalysis validates the K-channel closed forms
// against the simulation at the same 20% tolerance the single-channel
// curves meet: replicated allocation for all five comparison schemes at
// K in {2,4}, and the index/data allocation for the indexed schemes.
func TestMultichAgreesWithAnalysis(t *testing.T) {
	type point struct {
		label, scheme string
		mc            multichannel.Config
	}
	var points []point
	for _, k := range []int{2, 4, 8} {
		for _, s := range []string{"flat", "signature", "(1,m)", "distributed", "hashing"} {
			points = append(points, point{fmt.Sprintf("replicated K=%d", k), s, multichannel.Config{Channels: k}})
		}
	}
	for _, s := range []string{"(1,m)", "distributed"} {
		points = append(points, point{"indexdata K=3", s, multichannel.Config{Channels: 3, Policy: multichannel.PolicyIndexData}})
	}
	cfgs := make([]core.Config, len(points))
	for i, p := range points {
		cfgs[i] = fast.BaseConfig(p.scheme, fast.ComparisonRecords())
		cfgs[i].Multi = p.mc
	}
	results, err := runPoints(fast, cfgs)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range points {
		aAt, aTt := core.Analytic(cfgs[i], results[i].Params)
		sAt, sTt := results[i].Access.Mean(), results[i].Tuning.Mean()
		if !within(sAt, aAt, 0.2) {
			t.Errorf("%s %s: access sim %.0f vs analytical %.0f beyond 20%%", p.label, p.scheme, sAt, aAt)
		}
		if p.scheme != "flat" && !within(sTt, aTt, 0.2) {
			t.Errorf("%s %s: tuning sim %.0f vs analytical %.0f beyond 20%%", p.label, p.scheme, sTt, aTt)
		}
	}
}
