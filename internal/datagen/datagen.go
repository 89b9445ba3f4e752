// Package datagen synthesizes the dictionary-style database the paper's
// testbed broadcasts (§4.1: "a dictionary database consisting of about
// 35,000 records", text records of 500 bytes with 25-byte keys).
//
// The study depends only on the record count, record size, key size and key
// uniqueness — never on the actual English words — so a deterministic
// generator is a faithful substitute (see DESIGN.md §5). Keys are strictly
// increasing integers with random gaps of at least two, which guarantees
// that for every stored key there exists an adjacent key value that is
// provably absent from the broadcast; the data-availability experiments
// (paper §5.1) rely on that property to generate failing queries.
package datagen

import "fmt"

// Config describes a synthetic database.
type Config struct {
	// NumRecords is the number of records to generate.
	NumRecords int
	// RecordSize is the full record payload in bytes, including the key
	// field (paper default: 500).
	RecordSize int
	// KeySize is the encoded key width in bytes (paper default: 25).
	KeySize int
	// NumAttributes is how many text attributes each record carries in
	// addition to the key. Signature indexing superimposes one hash per
	// attribute (paper §2.3), so this controls false-drop behaviour.
	NumAttributes int
	// Seed makes generation reproducible.
	Seed int64
}

// Default returns the paper's Table 1 settings with the given record count.
func Default(numRecords int) Config {
	return Config{
		NumRecords:    numRecords,
		RecordSize:    500,
		KeySize:       25,
		NumAttributes: 4,
		Seed:          1,
	}
}

// Validate reports whether the configuration is internally consistent.
func (c Config) Validate() error {
	switch {
	case c.NumRecords <= 0:
		return fmt.Errorf("datagen: NumRecords %d must be positive", c.NumRecords)
	case c.KeySize < 4:
		return fmt.Errorf("datagen: KeySize %d must be at least 4 bytes", c.KeySize)
	case c.RecordSize <= c.KeySize:
		return fmt.Errorf("datagen: RecordSize %d must exceed KeySize %d", c.RecordSize, c.KeySize)
	case c.NumAttributes < 1:
		return fmt.Errorf("datagen: NumAttributes %d must be at least 1", c.NumAttributes)
	}
	return nil
}

// Record is one broadcast data item: a primary key plus text attributes.
type Record struct {
	// Key is the primary key value. Records are sorted by Key and keys are
	// unique; lexicographic order of the encoded key equals numeric order.
	Key uint64
	// Attrs are the record's text attributes (word, definition, ...).
	Attrs []string
}

// Dataset is an immutable, key-sorted synthetic database.
type Dataset struct {
	cfg     Config
	records []Record
}

// Generate builds a dataset from the configuration. Each record's
// attribute text is written into one reused buffer and copied out as a
// single string that its attributes slice, and every record's Attrs
// shares one backing array, so generation makes one allocation per record.
// The draws are rand.New(rand.NewSource(cfg.Seed)).Intn's, replayed by a
// drawer (draw.go).
func Generate(cfg Config) (*Dataset, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	d := newDrawer(cfg.Seed)
	records := make([]Record, cfg.NumRecords)
	na := cfg.NumAttributes
	attrs := make([]string, cfg.NumRecords*na)
	attrBudget := cfg.RecordSize - cfg.KeySize
	per := attrBudget / na
	// ends[j] is where attribute j stops in the record's text.
	ends := make([]int, na)
	// The last word of an attribute may run up to maxWord bytes past the
	// attribute's end before writeText cuts it.
	buf := make([]byte, attrBudget+maxWord)
	key := uint64(1000 + d.intn(&modThousand))
	for i := range records {
		w := 0
		for j := range ends {
			n := per
			if j == na-1 {
				n = attrBudget - per*(na-1)
			}
			w = d.writeText(buf, w, n)
			ends[j] = w
		}
		text := string(buf[:w])
		rec := attrs[i*na : (i+1)*na : (i+1)*na]
		start := 0
		for j, end := range ends {
			rec[j] = text[start:end]
			start = end
		}
		records[i] = Record{Key: key, Attrs: rec}
		// Gap of at least 2 so key+1 is always a provably missing key.
		key += 2 + uint64(d.intn(&modThree))
	}
	// The fixed-width base-36 key encoding must be able to hold every key
	// (narrow keys are legitimate — the record/key-ratio experiments use
	// them — but silent truncation would corrupt ordering).
	if cfg.KeySize < 13 {
		max := uint64(1)
		for i := 0; i < cfg.KeySize; i++ {
			max *= 36
		}
		if records[len(records)-1].Key >= max {
			return nil, fmt.Errorf("datagen: max key %d does not fit in %d base-36 digits",
				records[len(records)-1].Key, cfg.KeySize)
		}
	}
	return &Dataset{cfg: cfg, records: records}, nil
}

// Prefix returns the dataset of d's first n records, 0 < n <= d.Len(). It is
// the dataset Generate builds from d's config with NumRecords n: no draw
// depends on the record count, so a shorter dataset is a prefix of a
// longer one.
func (d *Dataset) Prefix(n int) *Dataset {
	cfg := d.cfg
	cfg.NumRecords = n
	return &Dataset{cfg: cfg, records: d.records[:n:n]}
}

// Config returns the configuration the dataset was generated from.
func (d *Dataset) Config() Config { return d.cfg }

// Len returns the number of records.
func (d *Dataset) Len() int { return len(d.records) }

// Record returns the i-th record in key order.
func (d *Dataset) Record(i int) Record { return d.records[i] }

// Records returns the full key-sorted record slice. Callers must not
// mutate it.
func (d *Dataset) Records() []Record { return d.records }

// KeyAt returns the key of the i-th record.
func (d *Dataset) KeyAt(i int) uint64 { return d.records[i].Key }

// MinKey and MaxKey bound the stored key range.
func (d *Dataset) MinKey() uint64 { return d.records[0].Key }

// MaxKey returns the largest stored key.
func (d *Dataset) MaxKey() uint64 { return d.records[len(d.records)-1].Key }

// Find returns the index of the record with the given key via binary
// search, or (-1, false) if the key is not stored.
func (d *Dataset) Find(key uint64) (int, bool) {
	lo, hi := 0, len(d.records)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if d.records[mid].Key < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(d.records) && d.records[lo].Key == key {
		return lo, true
	}
	return -1, false
}

// MissingKeyNear returns a key value that is guaranteed absent from the
// dataset and falls just after the i-th stored key. The generator's
// minimum inter-key gap of 2 makes key+1 always safe.
func (d *Dataset) MissingKeyNear(i int) uint64 {
	return d.records[i].Key + 1
}

// EncodeKey writes a key in the dataset's fixed-width wire form: a
// zero-padded 20-digit decimal (so byte order equals numeric order) padded
// to KeySize with deterministic lowercase filler. The fixed width is what
// gives the record/key-ratio experiments their meaning: a bigger KeySize is
// pure per-entry overhead.
func (d *Dataset) EncodeKey(key uint64) []byte {
	return EncodeKeyWidth(key, d.cfg.KeySize)
}

// EncodeKeyWidth is EncodeKey for an explicit width (at least 8 bytes).
func EncodeKeyWidth(key uint64, width int) []byte {
	return AppendKey(make([]byte, 0, width), key, width)
}

// AppendKey appends key's width-byte encoding to dst and returns the
// extended slice, so a caller with a large enough buffer encodes keys
// without allocating.
func AppendKey(dst []byte, key uint64, width int) []byte {
	// Base-36 digits from the least significant end keep the encoding
	// compact enough for any uint64 within 13 bytes; remaining leading
	// bytes are '0' padding so lexicographic order matches numeric order.
	const digits = "0123456789abcdefghijklmnopqrstuvwxyz"
	n := len(dst)
	for i := 0; i < width; i++ {
		dst = append(dst, '0')
	}
	k := key
	for i := n + width - 1; i >= n && k > 0; i-- {
		dst[i] = digits[k%36]
		k /= 36
	}
	return dst
}

// DecodeKey parses a key encoded by EncodeKeyWidth.
func DecodeKey(buf []byte) (uint64, error) {
	var k uint64
	for _, b := range buf {
		var v uint64
		switch {
		case b >= '0' && b <= '9':
			v = uint64(b - '0')
		case b >= 'a' && b <= 'z':
			v = uint64(b-'a') + 10
		default:
			return 0, fmt.Errorf("datagen: invalid key byte %q", b)
		}
		k = k*36 + v
	}
	return k, nil
}

// Pseudo-English filler: a word is one to three onset-vowel-coda
// syllables plus an ending. No part is longer than 4 bytes, and only an
// ending is longer than 2.
var (
	onsets  = newParts("b", "c", "d", "f", "g", "h", "j", "k", "l", "m", "n", "p", "r", "s", "t", "v", "w", "br", "cr", "dr", "st", "tr", "pl", "sh", "th")
	vowels  = newParts("a", "e", "i", "o", "u", "ai", "ea", "ou")
	codas   = newParts("", "n", "r", "s", "t", "l", "m", "nd", "rt", "ck")
	endings = newParts("", "ing", "ed", "ly", "ness", "tion")

	modThree    = newModulus(3)
	modThousand = newModulus(1000)
)

// maxWord bounds how far writeText's 4-byte stores reach past the end it
// was given: a word starts at the latest at that end (after a space), and
// its ending's block after at most three syllables of 2+2+2 bytes.
const maxWord = 3*6 + 4

// partTable is one table of word parts with its Intn modulus.
type partTable struct {
	mod   modulus
	parts []part
}

// part is a word part stored as a 4-byte block and its length.
type part struct {
	block [4]byte
	n     int
}

func newParts(ss ...string) *partTable {
	p := &partTable{mod: newModulus(len(ss)), parts: make([]part, len(ss))}
	for i, s := range ss {
		p.parts[i].n = copy(p.parts[i].block[:], s)
	}
	return p
}

// put draws one part and stores it at buf[w:], returning the new end. It
// spells out intn so that next inlines here.
func (d *drawer) put(buf []byte, w int, p *partTable) int {
	i, ok := d.next(&p.mod)
	if !ok {
		i = d.intnSlow(&p.mod)
	}
	pt := &p.parts[i]
	*(*[4]byte)(buf[w:]) = pt.block
	return w + pt.n
}

// writeText writes exactly n bytes of space-separated pseudo-words at
// buf[w:] and returns w+n: whole words until at least n bytes are written,
// the last one cut. buf needs maxWord bytes of slack past w+n.
func (d *drawer) writeText(buf []byte, w, n int) int {
	start, end := w, w+n
	for w < end {
		if w > start {
			buf[w] = ' '
			w++
		}
		syll := 1 + d.intn(&modThree)
		for i := 0; i < syll; i++ {
			w = d.put(buf, w, onsets)
			w = d.put(buf, w, vowels)
			w = d.put(buf, w, codas)
		}
		w = d.put(buf, w, endings)
	}
	return end
}
