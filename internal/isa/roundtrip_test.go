package isa_test

// Encode/decode round-trip property tests over the whole corpus plus
// generated programs, and stability checks for the canonical hash that keys
// the simulation cache (internal/simcache). MergeProb is quantised to 1e-6
// on encode, so structural round-trip tests use exactly representable
// probabilities; for arbitrary programs the tested property is encode
// idempotence (encode∘decode∘encode == encode).

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"dmp/internal/bench"
	"dmp/internal/codegen"
	"dmp/internal/core"
	"dmp/internal/isa"
	"dmp/internal/profile"
)

func encode(t *testing.T, p *isa.Program) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := p.WriteTo(&buf); err != nil {
		t.Fatalf("encode: %v", err)
	}
	return buf.Bytes()
}

func decode(t *testing.T, b []byte) *isa.Program {
	t.Helper()
	p, err := isa.ReadProgram(bytes.NewReader(b))
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	return p
}

// checkRoundTrip asserts decode(encode(p)) reproduces p exactly and that the
// container bytes are a fixed point of the codec.
func checkRoundTrip(t *testing.T, name string, p *isa.Program) {
	t.Helper()
	enc := encode(t, p)
	back := decode(t, enc)
	if !reflect.DeepEqual(p, back) {
		t.Errorf("%s: decoded program differs from original", name)
	}
	if again := encode(t, back); !bytes.Equal(enc, again) {
		t.Errorf("%s: re-encoding the decoded program changed the bytes", name)
	}
	if p.Hash() != back.Hash() {
		t.Errorf("%s: canonical hash changed across a round trip", name)
	}
}

func TestRoundTripCorpus(t *testing.T) {
	for _, b := range bench.All() {
		p, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		checkRoundTrip(t, b.Name, p)
	}
}

func TestRoundTripGenerated(t *testing.T) {
	seeds := 50
	if testing.Short() {
		seeds = 10
	}
	for seed := 0; seed < seeds; seed++ {
		p, err := codegen.CompileSource(bench.GenSource(int64(seed)))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		checkRoundTrip(t, fmt.Sprintf("gen-%d", seed), p)
	}
}

// TestRoundTripAnnotated round-trips an annotation sidecar covering every
// CFM kind and flag combination. MergeProbs are exact multiples of 1e-6 so
// quantisation is lossless and DeepEqual applies.
func TestRoundTripAnnotated(t *testing.T) {
	p, err := bench.ByName("vortex").Compile()
	if err != nil {
		t.Fatal(err)
	}
	var branches []int
	for pc, inst := range p.Code {
		if inst.IsCondBranch() {
			branches = append(branches, pc)
		}
	}
	if len(branches) < 4 {
		t.Fatalf("vortex has only %d conditional branches", len(branches))
	}
	annots := map[int]*isa.DivergeInfo{
		branches[0]: {CFMs: []isa.CFM{
			{Kind: isa.CFMAddr, Addr: branches[0] + 1, MergeProb: 0.25},
			{Kind: isa.CFMAddr, Addr: branches[0] + 2, MergeProb: 0.015625},
		}},
		branches[1]: {CFMs: []isa.CFM{{Kind: isa.CFMReturn, MergeProb: 0.5}}},
		branches[2]: {Loop: true, LoopHead: branches[2] - 1, LoopExitTaken: true},
		branches[3]: {CFMs: []isa.CFM{{Kind: isa.CFMAddr, Addr: branches[3] + 1, MergeProb: 1}}, Short: true},
	}
	checkRoundTrip(t, "vortex+annots", p.WithAnnots(annots))
}

// TestSidecarEncoding checks the container's split on the annotation sets
// the selection algorithms produce, for every corpus program and algorithm:
// WriteTo writes the code prefix followed by the sidecar, and the sidecar
// round-trips on its own, decoding as the whole container decodes it and
// re-encoding to the same bytes.
func TestSidecarEncoding(t *testing.T) {
	for _, b := range bench.All() {
		prog, err := b.Compile()
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		prof, err := profile.Collect(prog, b.Input(bench.TrainInput, 1), profile.Options{})
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		for _, algo := range core.Algorithms() {
			name := b.Name + "/" + algo
			res, err := core.SelectByName(prog, prof, algo)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			p := prog.WithAnnots(res.Annots)
			var split bytes.Buffer
			if err := p.EncodeCode(&split); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			codeLen := split.Len()
			isa.EncodeAnnots(&split, p.Annots)
			full := encode(t, p)
			if !bytes.Equal(full, split.Bytes()) {
				t.Fatalf("%s: WriteTo differs from the code prefix plus the sidecar", name)
			}
			r := bytes.NewReader(full[codeLen:])
			back, err := isa.DecodeAnnots(r, len(p.Annots))
			if err != nil {
				t.Fatalf("%s: decoding the sidecar: %v", name, err)
			}
			if r.Len() != 0 {
				t.Errorf("%s: %d sidecar bytes left undecoded", name, r.Len())
			}
			if whole := decode(t, full); !reflect.DeepEqual(back, whole.Annots) {
				t.Errorf("%s: the sidecar decodes unlike the whole container's annotations", name)
			}
			var again bytes.Buffer
			isa.EncodeAnnots(&again, back)
			if !bytes.Equal(again.Bytes(), full[codeLen:]) {
				t.Errorf("%s: re-encoding the decoded sidecar changed the bytes", name)
			}
		}
	}
}

// TestHashStableAcrossCompiles pins the cache-key property: two independent
// compiles of identical source must hash identically, and the hash must not
// depend on annotation map iteration order.
func TestHashStableAcrossCompiles(t *testing.T) {
	for _, b := range bench.All() {
		p1, err := codegen.CompileSource(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		p2, err := codegen.CompileSource(b.Source)
		if err != nil {
			t.Fatalf("%s: %v", b.Name, err)
		}
		if p1.Hash() != p2.Hash() {
			t.Errorf("%s: independent compiles hash differently", b.Name)
		}
	}
	src := bench.GenSource(3)
	p1, err := codegen.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := codegen.CompileSource(src)
	if err != nil {
		t.Fatal(err)
	}
	if p1.Hash() != p2.Hash() {
		t.Error("generated program: independent compiles hash differently")
	}
	if p1.Hash() == (&isa.Program{}).Hash() {
		t.Error("non-empty program hashes like the empty program")
	}
}
