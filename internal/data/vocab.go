package data

// Vocabulary maps feature strings to dense integer ids, mirroring the
// "vocabulary files" the paper's feature transformer ships to devices
// (§4.1). Id 0 is reserved for out-of-vocabulary strings.
type Vocabulary struct {
	ids   map[string]int
	words []string // index 1..n; words[0] is the OOV sentinel
}

// NewVocabulary builds a vocabulary from words in first-seen order.
// Duplicates are ignored.
func NewVocabulary(words []string) *Vocabulary {
	v := &Vocabulary{ids: make(map[string]int, len(words)), words: []string{"<oov>"}}
	for _, w := range words {
		v.Add(w)
	}
	return v
}

// Add inserts w if absent and returns its id.
func (v *Vocabulary) Add(w string) int {
	if id, ok := v.ids[w]; ok {
		return id
	}
	id := len(v.words)
	v.ids[w] = id
	v.words = append(v.words, w)
	return id
}

// Size returns the number of ids including the OOV slot.
func (v *Vocabulary) Size() int { return len(v.words) }

// SizeBytes estimates the serialized asset size of the vocabulary file:
// string bytes plus a 4-byte id each, the quantity the paper tracks when
// deciding whether a vocab asset fits on device (§4.1: up to 1.28 MB for
// high-cardinality variables).
func (v *Vocabulary) SizeBytes() int {
	total := 0
	for _, w := range v.words {
		total += len(w) + 4
	}
	return total
}

// CollisionRate estimates the fraction of n distinct features that collide
// when hashed into dim buckets (1 - expected distinct buckets / n), the
// quantity that drives the storage-vs-accuracy trade-off of §4.1.
func CollisionRate(n, dim int) float64 {
	if n <= 0 || dim <= 0 {
		return 0
	}
	// Expected occupied buckets: dim * (1 - (1-1/dim)^n).
	base := 1 - 1/float64(dim)
	// Use the closed form to avoid an n-iteration loop for large n.
	occupied := float64(dim) * (1 - pow(base, n))
	rate := 1 - occupied/float64(n)
	if rate < 0 {
		return 0
	}
	return rate
}

func pow(b float64, n int) float64 {
	out := 1.0
	for n > 0 {
		if n&1 == 1 {
			out *= b
		}
		b *= b
		n >>= 1
	}
	return out
}
