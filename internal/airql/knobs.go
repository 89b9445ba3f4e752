package airql

import (
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"

	"github.com/airindex/airindex/internal/core"
	"github.com/airindex/airindex/internal/faults"
	"github.com/airindex/airindex/internal/multichannel"
	"github.com/airindex/airindex/internal/schemes/dist"
	"github.com/airindex/airindex/internal/schemes/hashing"
	"github.com/airindex/airindex/internal/schemes/hybrid"
	"github.com/airindex/airindex/internal/schemes/onem"
	"github.com/airindex/airindex/internal/schemes/signature"
	"github.com/airindex/airindex/internal/units"
)

// formatFloat renders a float the way the CSV writer does: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// canonScheme resolves a scheme value (a registered name or alias) to
// its registered name.
func canonScheme(s string) (string, bool) {
	sc, ok := core.LookupScheme(s)
	return sc.Name, ok
}

// schemeVocab lists the scheme spellings a script can write bare, for
// error messages: every alias, and every name that is an identifier.
func schemeVocab() string {
	var names []string
	for _, name := range core.SchemeNames() {
		sc, _ := core.LookupScheme(name)
		names = append(names, sc.Aliases...)
		if lexesAsIdent(name) {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// parsedBy makes a knob vocabulary of the non-empty names parse accepts
// (parse reads "" as its default, which a script must spell out).
func parsedBy[T any](parse func(string) (T, error)) func(string) (string, bool) {
	return func(s string) (string, bool) {
		_, err := parse(s)
		return s, s != "" && err == nil
	}
}

// sigFamily are the schemes that honour the signature.* knobs.
var sigFamily = []string{signature.Name, signature.IntegratedName, signature.MultiLevelName}

// pointFaults stages the fault.* knobs of one point (or of the session
// settings). apply assembles cfg.Faults from it after all knobs are
// applied, as faults.FromRate(model, rate) built wholesale: setting
// fault.model or fault.rate in a script replaces any session fault
// config rather than patching it.
type pointFaults struct {
	modelSet bool
	model    faults.ModelKind
	rateSet  bool
	rate     float64
	retries  int
	retrySet bool
	recovery faults.RecoveryKind
	recovSet bool
}

// apply lands the staged knobs on cfg.Faults. Without a model or a rate
// it leaves cfg.Faults alone; the validator rejects retries or recovery
// on their own, which would otherwise be dropped here.
func (pf *pointFaults) apply(cfg *core.Config) {
	if !pf.modelSet && !pf.rateSet {
		return
	}
	model := pf.model
	if !pf.modelSet {
		// A rate with no model means the whole-bucket drop model, the
		// paper-adjacent default the faults family sweeps.
		model = faults.ModelDrop
	}
	cfg.Faults = faults.FromRate(model, pf.rate)
	if pf.retrySet {
		cfg.Faults.MaxRetries = pf.retries
	}
	if pf.recovSet {
		cfg.Faults.Recovery = pf.recovery
	}
}

// Setting is one knob assignment: a -set flag (ParseSettings makes
// these), an axis value or a SET stage. A point's config is its base with
// its settings applied in order. file and val.Pos locate a setting for
// diagnostics (for a SET or -set, at its expression); session marks a
// -set flag, whose fault.* staging collapses apart from the script's.
type Setting struct {
	kn      *knob
	val     Scalar
	file    string
	session bool
}

// Knob returns the setting's canonical knob name.
func (s Setting) Knob() string { return s.kn.name }

func (s Setting) errorf(format string, args ...any) *Error {
	return &Error{File: s.file, Pos: s.val.Pos, Msg: fmt.Sprintf(format, args...)}
}

// ParseSettings parses session-wide "knob=value" assignments, one per
// -set flag, through the same knob table and value checks as a script's
// SET. Diagnostics read -set:N:C, where N counts the -set flags from 1.
// The per-run knobs scheme and records are refused: a script sweeps or
// sets them, and airsim has its own flags for them. Ranges are checked
// where the settings land: ApplySettings, Check and Execute.
func ParseSettings(args []string) ([]Setting, error) {
	prog := &Program{File: "-set"}
	for i, arg := range args {
		p := &parser{lx: newLexer(prog.File, arg)}
		p.lx.line = i + 1
		if err := p.advance(); err != nil {
			return nil, err
		}
		name, err := p.expect(TokenIdent, "-set knob=value")
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(TokenAssign, "-set ", name.Text); err != nil {
			return nil, err
		}
		expr, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if p.cur.Kind != TokenEOF {
			return nil, p.errorf(p.cur.Pos, "unexpected %s after -set %s=...; give each knob its own -set flag", p.cur.Kind, name.Text)
		}
		prog.Sets = append(prog.Sets, SetDecl{Knob: name.Text, Pos: name.Pos, Expr: expr})
	}
	v := &validator{prog: prog, mode: ModeSim}
	v.checkSets()
	v.checkFaultKnobs()
	for i := range prog.Sets {
		if kn := lookupKnob(prog.Sets[i].Knob); kn != nil && (kn.name == "scheme" || kn.name == "records") {
			v.errorf(prog.Sets[i].Pos, "knob %s is chosen per run, not by -set", kn.name)
		}
	}
	if len(v.errs) > 0 {
		return nil, v.errs
	}
	settings := make([]Setting, len(prog.Sets))
	for i := range prog.Sets {
		set := &prog.Sets[i]
		// With no axes to read, every value checkSets accepts is a constant.
		val := set.nodes[0].val[0]
		val.Pos = set.Expr.Pos
		settings[i] = Setting{kn: lookupKnob(set.Knob), val: val, file: prog.File, session: true}
	}
	return settings, nil
}

// ApplySettings lands session-wide settings on cfg and checks the result
// as a point's config is checked (see assemble); a failure of cfg before
// any setting is returned as it is.
func ApplySettings(cfg *core.Config, settings []Setting) error {
	blame, err := assemble(cfg, new(pointFaults), settings)
	if err != nil && blame >= 0 {
		return settings[blame].errorf("%v", err)
	}
	return err
}

// fold lands settings on cfg in order, staging the fault.* knobs in pf
// (the caller's, so that a point check allocates none). The -set flags'
// staging collapses into cfg.Faults before the first script knob and the
// script's after its last, so a script's fault.model or fault.rate
// replaces the session's fault config wholesale.
func fold(cfg *core.Config, pf *pointFaults, settings []Setting) {
	*pf = pointFaults{}
	for i, s := range settings {
		if i > 0 && settings[i-1].session && !s.session {
			pf.apply(cfg)
			*pf = pointFaults{}
		}
		s.kn.apply(cfg, pf, s.val)
	}
	pf.apply(cfg)
}

// assemble folds settings onto cfg, their base, and runs
// core.Config.Validate on the result. When that fails, blame is the index
// of the setting that ended the longest valid prefix of the settings
// (each prefix folded, fault staging collapsed, on its own), or -1 when
// the base itself fails.
func assemble(cfg *core.Config, pf *pointFaults, settings []Setting) (blame int, err error) {
	base := *cfg
	fold(cfg, pf, settings)
	if err = cfg.Validate(); err == nil {
		return 0, nil
	}
	for blame = len(settings) - 1; blame >= 0; blame-- {
		prefix := base
		if fold(&prefix, pf, settings[:blame]); prefix.Validate() == nil {
			break
		}
	}
	return blame, err
}

// knob describes one assignable configuration key: its value type, the
// schemes it applies to, and how it lands on core.Config. It holds no
// range: core.Config.Validate judges every point a script will run (see
// pointConfig). DESIGN.md §11 renders the table as documentation.
type knob struct {
	name string
	doc  string
	// isString marks vocabulary knobs (scheme, fault.model, ...); vocab
	// resolves and canonicalises their values.
	isString bool
	vocab    func(s string) (string, bool)
	vocabDoc string
	// isBytes marks byte quantities: unit-suffixed numbers (1KiB) are
	// accepted here and only here.
	isBytes bool
	// isInt requires an integral value: apply truncates with int(v.Num).
	isInt bool
	// schemes restricts the knob to these canonical schemes; nil = all.
	schemes []string
	// apply lands the value on the config. v is canonical: strings
	// resolved through vocab, numbers finite and, for isInt, integral.
	apply func(cfg *core.Config, pf *pointFaults, v Scalar)
}

// knobTable lists every knob in documentation order. scheme is the
// constructor knob: exec.go reads it first (it names the point's base
// config and gates the scheme-specific knobs), so its apply is a no-op.
var knobTable = []knob{
	{
		name: "scheme", doc: "access method", isString: true,
		vocab: canonScheme, vocabDoc: "schemes: " + schemeVocab(),
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {},
	},
	{
		name: "records", doc: "database size in records", isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.NumRecords = int(v.Num) },
	},
	{
		name: "availability", doc: "probability a request's key is broadcast",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Availability = v.Num },
	},
	{
		name: "requestmean", doc: "mean request inter-arrival time in bytes",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.RequestMean = v.Num },
	},
	{
		name: "zipfs", doc: "Zipf popularity exponent (0 = uniform, else > 1)",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.ZipfS = v.Num },
	},
	{
		name: "dozeratio", doc: "doze-mode power relative to active listening",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.DozePowerRatio = v.Num },
	},
	{
		name: "data.recordbytes", doc: "record payload size", isBytes: true, isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.RecordSize = int(v.Num) },
	},
	{
		name: "data.keybytes", doc: "encoded key width", isBytes: true, isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.KeySize = int(v.Num) },
	},
	{
		name: "data.attrs", doc: "text attributes per record", isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.NumAttributes = int(v.Num) },
	},
	{
		name: "dist.r", doc: "distributed indexing's replication level (-1 = optimal)",
		isInt: true, schemes: []string{dist.Name},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Dist.R = int(v.Num) },
	},
	{
		name: "onem.m", doc: "(1,m) indexing's index repetitions per cycle",
		isInt: true, schemes: []string{onem.Name},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Onem.M = int(v.Num) },
	},
	{
		name: "hashing.load", doc: "hashing's load factor (records per logical bucket)",
		schemes: []string{hashing.Name},
		apply:   func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Hashing.LoadFactor = v.Num },
	},
	{
		name: "signature.sigbytes", doc: "signature width", isBytes: true, isInt: true,
		schemes: sigFamily,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			cfg.Signature.SigBytes = int(v.Num)
			// Keep the per-field bit budget representable inside the
			// signature, exactly as the ablation always did.
			if cfg.Signature.BitsPerField > int(v.Num)*8 {
				cfg.Signature.BitsPerField = int(v.Num) * 8
			}
		},
	},
	{
		name: "signature.bits", doc: "bits set per indexed field", isInt: true,
		schemes: sigFamily,
		apply:   func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Signature.BitsPerField = int(v.Num) },
	},
	{
		name: "signature.groupsize", doc: "records per signature group", isInt: true,
		schemes: []string{signature.IntegratedName, signature.MultiLevelName},
		apply:   func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Signature.GroupSize = int(v.Num) },
	},
	{
		name: "hybrid.groupsize", doc: "records per indexed signature group", isInt: true,
		schemes: []string{hybrid.Name},
		apply:   func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Hybrid.GroupSize = int(v.Num) },
	},
	{
		name: "fault.model", doc: "unreliable-channel error model", isString: true,
		vocab:    parsedBy(faults.ParseModel),
		vocabDoc: "models: none, iid, ge, drop",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			m, _ := faults.ParseModel(v.Str)
			pf.model, pf.modelSet = m, true
		},
	},
	{
		name: "fault.rate", doc: "error rate fed to the model",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			pf.rate, pf.rateSet = v.Num, true
		},
	},
	{
		name: "fault.retries", doc: "recovery retry budget (0 = unbounded)", isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			pf.retries, pf.retrySet = int(v.Num), true
		},
	},
	{
		name: "fault.recovery", doc: "client re-tune policy after a corrupted read", isString: true,
		vocab:    parsedBy(faults.ParseRecovery),
		vocabDoc: "policies: restart, cycle",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			r, _ := faults.ParseRecovery(v.Str)
			pf.recovery, pf.recovSet = r, true
		},
	},
	{
		name: "multi.channels", doc: "physical broadcast channels K (0 = single-channel path)", isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.Channels = int(v.Num) },
	},
	{
		name: "multi.switchcost", doc: "channel-switch retune cost", isBytes: true, isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.SwitchCost = units.Bytes64(int64(v.Num)) },
	},
	{
		name: "multi.policy", doc: "channel allocation policy", isString: true,
		vocab:    parsedBy(multichannel.ParsePolicy),
		vocabDoc: "policies: replicated, indexdata, skewed",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			p, _ := multichannel.ParsePolicy(v.Str)
			cfg.Multi.Policy = p
		},
	},
	{
		name: "multi.indexchannels", doc: "channels reserved for index buckets (indexdata policy)", isInt: true,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.IndexChannels = int(v.Num) },
	},
	{
		name: "multi.skew", doc: "Zipf exponent of the skewed allocation policy",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.Skew = v.Num },
	},
}

// knobAliases maps short spellings (the ones the ISSUE's one-liner
// grammar example uses) onto table entries.
var knobAliases = map[string]string{
	"k":          "multi.channels",
	"switchcost": "multi.switchcost",
	"alloc":      "multi.policy",
	"faultrate":  "fault.rate",
	"avail":      "availability",
}

// knobNameFor resolves an alias to its canonical knob name.
func knobNameFor(name string) string {
	if canon, ok := knobAliases[name]; ok {
		return canon
	}
	return name
}

// lookupKnob resolves a SET/axis name to its table entry.
func lookupKnob(name string) *knob {
	name = knobNameFor(name)
	for i := range knobTable {
		if knobTable[i].name == name {
			return &knobTable[i]
		}
	}
	return nil
}

// KnobNames lists every knob (canonical names, documentation order).
func KnobNames() []string {
	names := make([]string, len(knobTable))
	for i := range knobTable {
		names[i] = knobTable[i].name
	}
	return names
}

// checkKnobScalar checks what core.Config.Validate cannot see of a
// value: name vs number, vocabulary, byte unit, finiteness and, since
// apply truncates, integrality. It returns a message ("" if fine) so
// callers can anchor the position themselves.
func checkKnobScalar(k *knob, v Scalar) string {
	if k.isString {
		if !v.IsStr {
			return fmt.Sprintf("knob %s takes a name (%s), not a number", k.name, k.vocabDoc)
		}
		if _, ok := k.vocab(v.Str); !ok {
			return fmt.Sprintf("knob %s: unknown value %q (%s)", k.name, v.Str, k.vocabDoc)
		}
		return ""
	}
	if v.IsStr {
		return fmt.Sprintf("knob %s takes a number, not %q", k.name, v.Str)
	}
	if v.Bytes && !k.isBytes {
		return fmt.Sprintf("unit mismatch: knob %s is dimensionless but the value has a byte unit", k.name)
	}
	// apply would land NaN or ±Inf where Validate's range checks are not
	// all written to catch them, and int(±Inf) is undefined.
	if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
		return fmt.Sprintf("knob %s: value %s is not a finite number", k.name, formatFloat(v.Num))
	}
	if k.isInt && (v.Num != math.Trunc(v.Num) || math.Abs(v.Num) >= 1<<63) {
		return fmt.Sprintf("knob %s takes an integer, not %s", k.name, formatFloat(v.Num))
	}
	return ""
}
