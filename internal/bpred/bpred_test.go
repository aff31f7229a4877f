package bpred

import (
	"encoding/binary"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestHistoryPush(t *testing.T) {
	var h History
	h = h.Push(true).Push(false).Push(true)
	if h != 0b101 {
		t.Errorf("history = %b, want 101", h)
	}
}

func trainAndScore(p Predictor, outcomes func(i int) (pc int, taken bool), n int) float64 {
	var h History
	correct := 0
	for i := 0; i < n; i++ {
		pc, taken := outcomes(i)
		if p.Predict(pc, h) == taken {
			correct++
		}
		p.Update(pc, h, taken)
		h = h.Push(taken)
	}
	return float64(correct) / float64(n)
}

func TestPerceptronLearnsBias(t *testing.T) {
	p := NewPerceptron(64, 16)
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x40, true }, 2000)
	if acc < 0.99 {
		t.Errorf("always-taken accuracy = %v", acc)
	}
	p = NewPerceptron(64, 16)
	acc = trainAndScore(p, func(i int) (int, bool) { return 0x40, false }, 2000)
	if acc < 0.99 {
		t.Errorf("always-not-taken accuracy = %v", acc)
	}
}

func TestPerceptronLearnsAlternation(t *testing.T) {
	// Strict alternation is linearly separable on history bit 0.
	p := NewPerceptron(64, 16)
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x80, i%2 == 0 }, 4000)
	if acc < 0.95 {
		t.Errorf("alternation accuracy = %v", acc)
	}
}

func TestPerceptronLearnsHistoryCorrelation(t *testing.T) {
	// Branch B's outcome equals branch A's outcome three branches ago.
	p := NewPerceptron(256, 32)
	var h History
	rng := rand.New(rand.NewSource(7))
	window := make([]bool, 0, 4096)
	correct, total := 0, 0
	for i := 0; i < 6000; i++ {
		a := rng.Intn(2) == 0
		// Branch A at pc 100.
		p.Update(100, h, a)
		h = h.Push(a)
		window = append(window, a)
		// Two noise branches.
		for j := 0; j < 2; j++ {
			nz := rng.Intn(2) == 0
			p.Update(200+j, h, nz)
			h = h.Push(nz)
		}
		// Branch B at pc 300 repeats A.
		want := a
		if i > 1000 {
			total++
			if p.Predict(300, h) == want {
				correct++
			}
		}
		p.Update(300, h, want)
		h = h.Push(want)
	}
	acc := float64(correct) / float64(total)
	if acc < 0.9 {
		t.Errorf("correlated accuracy = %v, want >= 0.9", acc)
	}
}

func TestPerceptronRandomIsHard(t *testing.T) {
	// Random outcomes cannot be predicted: accuracy should hover near 50%.
	p := NewPerceptron(256, 64)
	rng := rand.New(rand.NewSource(3))
	acc := trainAndScore(p, func(i int) (int, bool) { return 0x77, rng.Intn(2) == 0 }, 10000)
	if acc < 0.40 || acc > 0.60 {
		t.Errorf("random accuracy = %v, want ~0.5", acc)
	}
}

func TestPerceptronWeightSaturation(t *testing.T) {
	p := NewPerceptron(4, 8)
	for i := 0; i < 100000; i++ {
		p.Update(0, 0xFF, true)
	}
	for i := 0; i <= 8; i++ {
		if w := p.weight(0, i); w > 127 || w < -127 {
			t.Fatalf("weight out of range: %d", w)
		}
	}
}

func TestPerceptronDefaults(t *testing.T) {
	p := NewPerceptron(0, 0)
	if len(p.rows) != PerceptronDefaultTables {
		t.Errorf("tables = %d", len(p.rows))
	}
	if p.hmask != ^History(0) || p.nwords != 8 {
		t.Errorf("hmask = %#x, nwords = %d, want a 64-bit history", uint64(p.hmask), p.nwords)
	}
	hist := float64(PerceptronDefaultHist)
	if p.theta != int32(1.93*hist+14) {
		t.Errorf("theta = %d", p.theta)
	}
}

func TestGshareLearns(t *testing.T) {
	g := NewGshare(12)
	acc := trainAndScore(g, func(i int) (int, bool) { return 0x123, true }, 1000)
	// History churn during warmup costs a few indices before it saturates.
	if acc < 0.97 {
		t.Errorf("gshare always-taken accuracy = %v", acc)
	}
	g = NewGshare(12)
	acc = trainAndScore(g, func(i int) (int, bool) { return 0x123, i%2 == 0 }, 4000)
	if acc < 0.95 {
		t.Errorf("gshare alternation accuracy = %v", acc)
	}
}

func TestGshareCounterBounds(t *testing.T) {
	g := NewGshare(4)
	for i := 0; i < 10; i++ {
		g.Update(1, 0, true)
	}
	if !g.Predict(1, 0) {
		t.Error("saturated-up counter predicts not-taken")
	}
	for i := 0; i < 10; i++ {
		g.Update(1, 0, false)
	}
	if g.Predict(1, 0) {
		t.Error("saturated-down counter predicts taken")
	}
}

func TestBTB(t *testing.T) {
	b := NewBTB(16)
	if _, hit := b.Lookup(5); hit {
		t.Error("cold BTB hit")
	}
	b.Update(5, 100)
	if tgt, hit := b.Lookup(5); !hit || tgt != 100 {
		t.Errorf("lookup = %d,%v", tgt, hit)
	}
	// Aliasing: pc 5+16 maps to the same set and evicts.
	b.Update(21, 200)
	if _, hit := b.Lookup(5); hit {
		t.Error("aliased entry still hits for old pc")
	}
	if tgt, hit := b.Lookup(21); !hit || tgt != 200 {
		t.Errorf("new entry = %d,%v", tgt, hit)
	}
}

func TestRASLifo(t *testing.T) {
	r := NewRAS(4)
	if _, ok := r.Pop(); ok {
		t.Error("empty RAS popped")
	}
	r.Push(1)
	r.Push(2)
	r.Push(3)
	for want := 3; want >= 1; want-- {
		got, ok := r.Pop()
		if !ok || got != want {
			t.Errorf("pop = %d,%v, want %d", got, ok, want)
		}
	}
	if _, ok := r.Pop(); ok {
		t.Error("drained RAS popped")
	}
}

func TestRASOverflowWraps(t *testing.T) {
	r := NewRAS(2)
	r.Push(1)
	r.Push(2)
	r.Push(3) // overwrites 1
	if got, _ := r.Pop(); got != 3 {
		t.Errorf("pop = %d, want 3", got)
	}
	if got, _ := r.Pop(); got != 2 {
		t.Errorf("pop = %d, want 2", got)
	}
	if _, ok := r.Pop(); ok {
		t.Error("wrapped RAS popped a third value")
	}
}

func TestRASSnapshotRestore(t *testing.T) {
	r := NewRAS(8)
	r.Push(10)
	r.Push(20)
	snap := r.Snapshot()
	r.Pop()
	r.Push(99)
	r.Push(98)
	r.Restore(snap)
	if got, ok := r.Pop(); !ok || got != 20 {
		t.Errorf("after restore pop = %d,%v, want 20", got, ok)
	}
	if got, ok := r.Pop(); !ok || got != 10 {
		t.Errorf("after restore pop = %d,%v, want 10", got, ok)
	}
}

func TestConfidenceColdIsLow(t *testing.T) {
	c := NewConfidence(0, 0, 0)
	if !c.LowConfidence(42, 0) {
		t.Error("cold estimator should report low confidence")
	}
}

func TestConfidenceBuildsUp(t *testing.T) {
	c := NewConfidence(64, 4, 14)
	for i := 0; i < 20; i++ {
		c.Update(42, 0, false)
	}
	if c.LowConfidence(42, 0) {
		t.Error("confidence not built after 20 correct predictions")
	}
	// A single misprediction must NOT drop a saturated counter below the
	// threshold (31-4=27 >= 14); sustained mispredictions must.
	c.Update(42, 0, true)
	if c.LowConfidence(42, 0) {
		t.Error("one miss flagged a well-predicted branch low-confidence")
	}
	for i := 0; i < 5; i++ {
		c.Update(42, 0, true)
	}
	if !c.LowConfidence(42, 0) {
		t.Error("sustained mispredictions did not drop confidence")
	}
	c.SetPenalty(0) // classic reset-to-zero JRS
	c.Update(42, 0, true)
	if !c.LowConfidence(42, 0) {
		t.Error("reset-mode estimator not low after miss")
	}
}

func TestConfidencePVNStats(t *testing.T) {
	c := NewConfidence(64, 4, 14)
	// 10 low-confidence updates, 4 of them mispredicted.
	for i := 0; i < 10; i++ {
		c.Update(1, 0, i < 4)
		// Keep it low-confidence by injecting a miss whenever the counter
		// would cross the threshold — with threshold 14 and only 10 updates
		// it cannot cross.
	}
	if got := c.PVN(); got != 0.4 {
		t.Errorf("PVN = %v, want 0.4", got)
	}
	if got := c.Coverage(); got != 1.0 {
		t.Errorf("Coverage = %v, want 1 (no high-conf misses)", got)
	}
	c.ResetStats()
	if c.PVN() != 0 {
		t.Error("ResetStats did not clear PVN")
	}
}

func TestConfidenceHistoryInIndex(t *testing.T) {
	c := NewConfidence(4096, 12, 14)
	// Same PC under different histories must use different counters.
	for i := 0; i < 20; i++ {
		c.Update(100, 0, false)
	}
	if c.LowConfidence(100, 0) {
		t.Fatal("not confident under trained history")
	}
	if !c.LowConfidence(100, History(0xABC)) {
		t.Error("confident under untrained history: index ignores history")
	}
}

// TestPredictorQuickDeterminism: identical update sequences produce
// identical predictions for both predictor implementations.
func TestPredictorQuickDeterminism(t *testing.T) {
	f := func(seed int64) bool {
		mk := func() []Predictor {
			return []Predictor{NewPerceptron(64, 16), NewGshare(10)}
		}
		a, b := mk(), mk()
		rng := rand.New(rand.NewSource(seed))
		var h History
		for i := 0; i < 500; i++ {
			pc := rng.Intn(1024)
			taken := rng.Intn(2) == 0
			for j := range a {
				if a[j].Predict(pc, h) != b[j].Predict(pc, h) {
					return false
				}
				a[j].Update(pc, h, taken)
				b[j].Update(pc, h, taken)
			}
			h = h.Push(taken)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestCeilPow2(t *testing.T) {
	cases := map[int]int{1: 1, 2: 2, 3: 4, 5: 8, 4096: 4096, 4097: 8192}
	for in, want := range cases {
		if got := ceilPow2(in); got != want {
			t.Errorf("ceilPow2(%d) = %d, want %d", in, got, want)
		}
	}
}

// weight returns weight i of row: i == 0 is the bias, i >= 1 the weight of
// history bit i-1.
func (p *Perceptron) weight(row, i int) int8 {
	r := &p.rows[row]
	if i == 0 {
		return r.bias
	}
	return int8(r.lanes[(i-1)/8]>>(8*((i-1)%8)) ^ 0x80)
}

// setWeight stores w as weight i of row, keeping the row's weight sum.
func (p *Perceptron) setWeight(row, i int, w int8) {
	r := &p.rows[row]
	if i == 0 {
		r.bias = w
		return
	}
	r.sum += int32(w) - int32(p.weight(row, i))
	shift := 8 * ((i - 1) % 8)
	lane := &r.lanes[(i-1)/8]
	*lane = *lane&^(0xFF<<shift) | uint64(uint8(w)^0x80)<<shift
}

// refPerceptron is the scalar perceptron the SWAR kernel replaced, kept as
// the reference the differential tests compare against value for value.
type refPerceptron struct {
	weights [][]int8 // [table][histLen+1], weights[i][0] is the bias
	histLen int
}

func newRefPerceptron(tables, histLen int) *refPerceptron {
	r := &refPerceptron{weights: make([][]int8, tables), histLen: histLen}
	for i := range r.weights {
		r.weights[i] = make([]int8, histLen+1)
	}
	return r
}

func (p *refPerceptron) output(pc int, h History) int32 {
	w := p.weights[pc&(len(p.weights)-1)]
	_ = w[p.histLen]
	y := int32(w[0])
	hh := uint64(h)
	i := 1
	for ; i+3 <= p.histLen; i += 4 {
		m0 := int32(hh&1) - 1
		m1 := int32(hh>>1&1) - 1
		m2 := int32(hh>>2&1) - 1
		m3 := int32(hh>>3&1) - 1
		y += (int32(w[i]) ^ m0) - m0
		y += (int32(w[i+1]) ^ m1) - m1
		y += (int32(w[i+2]) ^ m2) - m2
		y += (int32(w[i+3]) ^ m3) - m3
		hh >>= 4
	}
	for ; i <= p.histLen; i++ {
		m := int32(hh&1) - 1
		y += (int32(w[i]) ^ m) - m
		hh >>= 1
	}
	return y
}

func (p *refPerceptron) train(pc int, h History, taken bool) {
	w := p.weights[pc&(len(p.weights)-1)]
	_ = w[p.histLen]
	w[0] = sat8(w[0], taken)
	t := uint64(0)
	if taken {
		t = 1
	}
	hh := uint64(h)
	for i := 1; i <= p.histLen; i++ {
		d := int32(1) - int32((hh&1)^t)<<1
		v := int32(w[i]) + d
		if v > 127 {
			v = 127
		}
		if v < -127 {
			v = -127
		}
		w[i] = int8(v)
		hh >>= 1
	}
}

// diffPerceptron checks that p and ref hold identical weights in every row.
func diffPerceptron(t testing.TB, p *Perceptron, ref *refPerceptron) {
	t.Helper()
	for row, ws := range ref.weights {
		for i, want := range ws {
			if got := p.weight(row, i); got != want {
				t.Fatalf("histLen %d: row %d weight %d = %d, want %d", ref.histLen, row, i, got, want)
			}
		}
		// Lanes past histLen must stay at weight 0.
		for i := ref.histLen + 1; i <= 64; i++ {
			if got := p.weight(row, i); got != 0 {
				t.Fatalf("histLen %d: row %d unused lane %d = %d, want 0", ref.histLen, row, i, got)
			}
		}
	}
}

// randWeight draws a weight in [-127, 127], a third of them at a bound.
func randWeight(rng *rand.Rand) int8 {
	switch rng.Intn(6) {
	case 0:
		return 127
	case 1:
		return -127
	}
	return int8(rng.Intn(255) - 127)
}

// randHistory draws a history, with all-zeros and all-ones among them. Bits
// above histLen are set as often as the rest, and the kernel must ignore them.
func randHistory(rng *rand.Rand) History {
	switch rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return ^History(0)
	}
	return History(rng.Uint64())
}

// TestPerceptronKernelMatchesReference compares the SWAR kernel with the
// scalar reference, output for output and weight for weight, at every
// history length, from random and saturated weights.
func TestPerceptronKernelMatchesReference(t *testing.T) {
	const tables = 8
	rng := rand.New(rand.NewSource(42))
	for histLen := 1; histLen <= 64; histLen++ {
		p := NewPerceptron(tables, histLen)
		ref := newRefPerceptron(tables, histLen)
		for row := range ref.weights {
			for i := range ref.weights[row] {
				w := randWeight(rng)
				ref.weights[row][i] = w
				p.setWeight(row, i, w)
			}
		}
		diffPerceptron(t, p, ref)
		for step := 0; step < 2000; step++ {
			pc, h, taken := rng.Intn(64), randHistory(rng), rng.Intn(2) == 0
			if got, want := p.output(pc, h), ref.output(pc, h); got != want {
				t.Fatalf("histLen %d step %d: output(%d, %#x) = %d, want %d", histLen, step, pc, uint64(h), got, want)
			}
			p.train(pc, h, taken)
			ref.train(pc, h, taken)
		}
		diffPerceptron(t, p, ref)
		// Drive one row into both bounds and back.
		for _, taken := range []bool{true, false} {
			for i := 0; i < 300; i++ {
				p.train(3, 0xA5A5A5A5A5A5A5A5, taken)
				ref.train(3, 0xA5A5A5A5A5A5A5A5, taken)
			}
			diffPerceptron(t, p, ref)
		}
	}
}

// checkKernel replays an operation stream decoded from data through the
// SWAR kernel and the scalar reference and fails on the first difference.
// data[0] picks the history length. Each 10-byte record after it is a pc
// byte, a flags byte and an 8-byte history. Flags bit 0 is the outcome, bit 1
// trains unconditionally instead of through Update, and bits 2-7 repeat the
// record up to 63 more times, so short inputs can reach the weight bounds.
func checkKernel(t testing.TB, data []byte) {
	if len(data) == 0 {
		return
	}
	const tables = 4
	histLen := int(data[0])%64 + 1
	p := NewPerceptron(tables, histLen)
	ref := newRefPerceptron(tables, histLen)
	for data = data[1:]; len(data) >= 10; data = data[10:] {
		pc, flags := int(data[0]), data[1]
		h := History(binary.LittleEndian.Uint64(data[2:]))
		taken := flags&1 != 0
		for n := int(flags >> 2); n >= 0; n-- {
			if got, want := p.output(pc, h), ref.output(pc, h); got != want {
				t.Fatalf("histLen %d: output(%d, %#x) = %d, want %d", histLen, pc, uint64(h), got, want)
			}
			if flags&2 != 0 {
				p.train(pc, h, taken)
				ref.train(pc, h, taken)
				continue
			}
			p.Update(pc, h, taken)
			if y := ref.output(pc, h); (y >= 0) != taken || abs32(y) <= p.theta {
				ref.train(pc, h, taken)
			}
		}
	}
	diffPerceptron(t, p, ref)
}

func FuzzPerceptronKernel(f *testing.F) {
	rng := rand.New(rand.NewSource(1))
	for _, histLen := range []byte{0, 7, 8, 9, 31, 63} {
		seed := []byte{histLen}
		for i := 0; i < 24; i++ {
			rec := make([]byte, 10)
			rng.Read(rec)
			if i < 8 {
				// 8 × 64 unconditional steps one way reach the bounds.
				rec[0], rec[1] = 1, 0xFF
			}
			seed = append(seed, rec...)
		}
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) { checkKernel(t, data) })
}

// BenchmarkPerceptron measures the predictor at Table-1 geometry (256
// perceptrons, 64-bit history) on a fixed seeded branch stream: each op
// predicts a branch, then trains on its outcome, as fetch and retire do.
func BenchmarkPerceptron(b *testing.B) {
	const n = 1 << 12
	rng := rand.New(rand.NewSource(9))
	pcs := make([]int, n)
	taken := make([]bool, n)
	bias := make([]int, 64) // per-branch taken percentage
	for i := range bias {
		bias[i] = rng.Intn(101)
	}
	for i := range pcs {
		br := rng.Intn(len(bias))
		pcs[i] = br * 37
		taken[i] = rng.Intn(100) < bias[br]
	}
	p := NewPerceptron(PerceptronDefaultTables, PerceptronDefaultHist)
	var h History
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j := i & (n - 1)
		p.Predict(pcs[j], h)
		p.Update(pcs[j], h, taken[j])
		h = h.Push(taken[j])
	}
}
