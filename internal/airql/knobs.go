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
	"github.com/airindex/airindex/internal/units"
)

// formatFloat renders a float the way the CSV writer does: shortest
// round-trip representation.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// schemeAliases maps DSL-friendly spellings to registered scheme names.
// The canonical names "(1,m)", "broadcast-disks" and the signature
// variants contain characters the expression grammar claims (commas,
// parens, '-' is the minus operator), so bare identifiers get aliases;
// the canonical spellings are always accepted in quoted strings.
var schemeAliases = map[string]string{
	"flat":           "flat",
	"dist":           "distributed",
	"distributed":    "distributed",
	"hash":           "hashing",
	"hashing":        "hashing",
	"sig":            "signature",
	"signature":      "signature",
	"onem":           "(1,m)",
	"bdisk":          "broadcast-disks",
	"hybrid":         "hybrid",
	"sig_integrated": "signature-integrated",
	"sig_multilevel": "signature-multilevel",
}

// canonScheme resolves a scheme value (alias or canonical name) to its
// registered name.
func canonScheme(s string) (string, bool) {
	if c, ok := schemeAliases[s]; ok {
		return c, true
	}
	for _, name := range core.SchemeNames() {
		if s == name {
			return s, true
		}
	}
	return "", false
}

// schemeVocab lists every accepted scheme spelling, for error messages.
func schemeVocab() string {
	var names []string
	for alias := range schemeAliases {
		names = append(names, alias)
	}
	sort.Strings(names)
	return strings.Join(names, ", ")
}

// sigFamily are the schemes that honour the signature.* knobs.
var sigFamily = []string{"signature", "signature-integrated", "signature-multilevel"}

// pointFaults stages the fault.* knobs of one point. The executor
// assembles cfg.Faults from it after all knobs are applied, mirroring
// how the Go experiment functions built faults.FromRate(model, rate)
// wholesale: setting fault.model in a script replaces any session fault
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

// knob describes one assignable configuration key: its value type, its
// static range, the schemes it applies to, and how it lands on
// core.Config. This table IS the validator's knowledge of the config
// surface; DESIGN.md §11 renders it as documentation.
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
	// isInt requires an integral value.
	isInt bool
	// min/max bound numeric values (inclusive; NaN means unbounded).
	min, max float64
	// maxExcl is an exclusive upper bound (0 means none): error rates
	// live in [0,1).
	maxExcl float64
	// schemes restricts the knob to these canonical schemes; nil = all.
	schemes []string
	// apply lands the value on the config. v is canonical: strings
	// resolved through vocab, numbers validated against the bounds.
	apply func(cfg *core.Config, pf *pointFaults, v Scalar)
}

func (k *knob) compatibleWith(scheme string) bool {
	if k.schemes == nil {
		return true
	}
	for _, s := range k.schemes {
		if s == scheme {
			return true
		}
	}
	return false
}

// unbounded is the "no bound" marker for knob ranges.
var unbounded = math.NaN()

// knobTable lists every knob in documentation order. scheme and records
// are constructor knobs: the executor needs them before DefaultConfig
// exists, so their apply is a no-op here and exec.go reads them first.
var knobTable = []knob{
	{
		name: "scheme", doc: "access method", isString: true,
		vocab: canonScheme, vocabDoc: "schemes: " + schemeVocab(),
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {},
	},
	{
		name: "records", doc: "database size in records", isInt: true, min: 1, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {},
	},
	{
		name: "availability", doc: "probability a request's key is broadcast", min: 0, max: 1,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Availability = v.Num },
	},
	{
		name: "requestmean", doc: "mean request inter-arrival time in bytes", min: 1e-9, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.RequestMean = v.Num },
	},
	{
		name: "zipfs", doc: "Zipf popularity exponent (0 = uniform, else > 1)", min: 0, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.ZipfS = v.Num },
	},
	{
		name: "biterror", doc: "legacy per-read bit error rate", min: 0, max: unbounded, maxExcl: 1,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.BitErrorRate = v.Num },
	},
	{
		name: "dozeratio", doc: "doze-mode power relative to active listening", min: 0, max: 1,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.DozePowerRatio = v.Num },
	},
	{
		name: "data.recordbytes", doc: "record payload size", isBytes: true, isInt: true, min: 1, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.RecordSize = int(v.Num) },
	},
	{
		name: "data.keybytes", doc: "encoded key width", isBytes: true, isInt: true, min: 4, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.KeySize = int(v.Num) },
	},
	{
		name: "data.attrs", doc: "text attributes per record", isInt: true, min: 1, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Data.NumAttributes = int(v.Num) },
	},
	{
		name: "dist.r", doc: "distributed indexing's replication level (-1 = optimal)",
		isInt: true, min: -1, max: unbounded, schemes: []string{"distributed"},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Dist.R = int(v.Num) },
	},
	{
		name: "onem.m", doc: "(1,m) indexing's index repetitions per cycle",
		isInt: true, min: 1, max: unbounded, schemes: []string{"(1,m)"},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Onem.M = int(v.Num) },
	},
	{
		name: "hashing.load", doc: "hashing's load factor (records per logical bucket)",
		min: 1e-9, max: unbounded, schemes: []string{"hashing"},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Hashing.LoadFactor = v.Num },
	},
	{
		name: "signature.sigbytes", doc: "signature width", isBytes: true, isInt: true, min: 1, max: unbounded,
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
		name: "signature.bits", doc: "bits set per indexed field", isInt: true, min: 1, max: unbounded,
		schemes: sigFamily,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Signature.BitsPerField = int(v.Num) },
	},
	{
		name: "signature.groupsize", doc: "records per signature group", isInt: true, min: 1, max: unbounded,
		schemes: []string{"signature-integrated", "signature-multilevel"},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Signature.GroupSize = int(v.Num) },
	},
	{
		name: "hybrid.groupsize", doc: "records per indexed signature group", isInt: true, min: 1, max: unbounded,
		schemes: []string{"hybrid"},
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Hybrid.GroupSize = int(v.Num) },
	},
	{
		name: "fault.model", doc: "unreliable-channel error model", isString: true,
		vocab: func(s string) (string, bool) {
			if s == "" {
				return "", false
			}
			if _, err := faults.ParseModel(s); err != nil {
				return "", false
			}
			return s, true
		},
		vocabDoc: "models: none, iid, ge, drop",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			m, _ := faults.ParseModel(v.Str)
			pf.model, pf.modelSet = m, true
		},
	},
	{
		name: "fault.rate", doc: "error rate fed to the model", min: 0, max: unbounded, maxExcl: 1,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			pf.rate, pf.rateSet = v.Num, true
		},
	},
	{
		name: "fault.retries", doc: "recovery retry budget (0 = unbounded)", isInt: true, min: 0, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			pf.retries, pf.retrySet = int(v.Num), true
		},
	},
	{
		name: "fault.recovery", doc: "client re-tune policy after a corrupted read", isString: true,
		vocab: func(s string) (string, bool) {
			if s == "" {
				return "", false
			}
			if _, err := faults.ParseRecovery(s); err != nil {
				return "", false
			}
			return s, true
		},
		vocabDoc: "policies: restart, cycle",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			r, _ := faults.ParseRecovery(v.Str)
			pf.recovery, pf.recovSet = r, true
		},
	},
	{
		name: "multi.channels", doc: "physical broadcast channels K (0 = single-channel path)",
		isInt: true, min: 0, max: multichannel.MaxChannels,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.Channels = int(v.Num) },
	},
	{
		name: "multi.switchcost", doc: "channel-switch retune cost", isBytes: true, isInt: true, min: 0, max: unbounded,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.SwitchCost = units.Bytes64(int64(v.Num)) },
	},
	{
		name: "multi.policy", doc: "channel allocation policy", isString: true,
		vocab: func(s string) (string, bool) {
			if s == "" {
				return "", false
			}
			if _, err := multichannel.ParsePolicy(s); err != nil {
				return "", false
			}
			return s, true
		},
		vocabDoc: "policies: replicated, indexdata, skewed",
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) {
			p, _ := multichannel.ParsePolicy(v.Str)
			cfg.Multi.Policy = p
		},
	},
	{
		name: "multi.indexchannels", doc: "channels reserved for index buckets (indexdata policy)",
		isInt: true, min: 0, max: multichannel.MaxChannels,
		apply: func(cfg *core.Config, pf *pointFaults, v Scalar) { cfg.Multi.IndexChannels = int(v.Num) },
	},
	{
		name: "multi.skew", doc: "Zipf exponent of the skewed allocation policy", min: 0, max: unbounded,
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

// lookupKnob resolves a SET/axis name to its table entry.
func lookupKnob(name string) *knob {
	if canon, ok := knobAliases[name]; ok {
		name = canon
	}
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

// checkKnobScalar validates a resolved value against the knob's static
// constraints; it returns a message ("" if fine) so callers can anchor
// the position themselves.
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
	// NaN passes every ordered bound check below and ±Inf slips past the
	// unbounded ones, so reject both up front.
	if math.IsNaN(v.Num) || math.IsInf(v.Num, 0) {
		return fmt.Sprintf("knob %s: value %s is not a finite number", k.name, formatFloat(v.Num))
	}
	if k.isInt && v.Num != math.Trunc(v.Num) {
		return fmt.Sprintf("knob %s takes an integer, not %s", k.name, formatFloat(v.Num))
	}
	if !math.IsNaN(k.min) && v.Num < k.min {
		return fmt.Sprintf("knob %s: value %s below minimum %s", k.name, formatFloat(v.Num), formatFloat(k.min))
	}
	if !math.IsNaN(k.max) && v.Num > k.max {
		return fmt.Sprintf("knob %s: value %s above maximum %s", k.name, formatFloat(v.Num), formatFloat(k.max))
	}
	if k.maxExcl != 0 && v.Num >= k.maxExcl {
		return fmt.Sprintf("knob %s: value %s must be below %s", k.name, formatFloat(v.Num), formatFloat(k.maxExcl))
	}
	if k.name == "zipfs" && v.Num != 0 && v.Num <= 1 {
		return fmt.Sprintf("knob zipfs: exponent %s must exceed 1 (or be 0 for the uniform workload)", formatFloat(v.Num))
	}
	return ""
}
