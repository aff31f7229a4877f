package verify

import (
	"bytes"
	"math"

	"dmp/internal/isa"
)

// binaryPass checks DISA well-formedness: a non-empty code segment, the
// entry point in range, every instruction structurally valid (defined
// opcode, register fields below NumRegs, direct targets in range), and
// sane function symbols. The per-unit rules are delegated to the isa
// package's granular validators so there is a single source of truth.
func (c *checker) binaryPass() {
	p := c.p
	if len(p.Code) == 0 {
		c.report(PassBinary, -1, "empty code segment")
		return
	}
	if p.Entry < 0 || p.Entry >= len(p.Code) {
		c.report(PassBinary, -1, "entry %d out of range [0,%d)", p.Entry, len(p.Code))
	}
	for pc := range p.Code {
		if err := p.ValidateInstAt(pc); err != nil {
			c.report(PassBinary, pc, "%v", err)
		}
	}
	if err := p.ValidateFuncs(); err != nil {
		c.report(PassBinary, -1, "%v", err)
	}
}

// The encode pass checks container self-consistency in two halves that
// round-trip separately: the code prefix (header, code, function symbols)
// and the annotation sidecar. Each half is serialized and reparsed, must
// reproduce the program field-for-field (merge probabilities up to the 1e-6
// quantization of the wire format), and re-encoding what was decoded must
// be a byte-level fixed point.

// encodeCodePass round-trips the code prefix. It reports whether the code
// is valid: decoding revalidates, so invalid code would be reported here as
// a decode failure, masking the root cause the binary pass reports
// precisely. Such code is left to the binary pass.
func (c *checker) encodeCodePass() bool {
	p := c.p
	if p.ValidateCode() != nil || p.ValidateFuncs() != nil {
		return false
	}
	// With no annotations the code prefix is a whole container.
	bare := *p
	bare.Annots = nil
	var buf bytes.Buffer
	if err := bare.EncodeCode(&buf); err != nil {
		c.report(PassEncode, -1, "serialization failed: %v", err)
		return true
	}
	enc := buf.Bytes()
	back, err := isa.ReadProgram(bytes.NewReader(enc))
	if err != nil {
		c.report(PassEncode, -1, "decoding our own serialization failed: %v", err)
		return true
	}
	c.compareCode(back)
	var again bytes.Buffer
	if err := back.EncodeCode(&again); err != nil {
		c.report(PassEncode, -1, "re-serialization failed: %v", err)
		return true
	}
	if !bytes.Equal(enc, again.Bytes()) {
		c.report(PassEncode, -1, "container is not a codec fixed point: re-encoding the decoded program changed the bytes")
	}
	return true
}

// encodeAnnotsPass round-trips the annotation sidecar of a program whose
// code is valid. Locally invalid annotations are left to the annot pass,
// for the reason encodeCodePass leaves invalid code to the binary pass.
func (c *checker) encodeAnnotsPass() {
	p := c.p
	if annotsValid(p) != nil {
		return
	}
	var buf bytes.Buffer
	isa.EncodeAnnots(&buf, p.Annots)
	enc := buf.Bytes()
	back, err := isa.DecodeAnnots(bytes.NewReader(enc), len(p.Annots))
	if err == nil {
		// Decoding a whole container revalidates its annotations.
		dec := *p
		dec.Annots = back
		err = annotsValid(&dec)
	}
	if err != nil {
		c.report(PassEncode, -1, "decoding our own annotation sidecar failed: %v", err)
		return
	}
	c.compareAnnots(back)
	var again bytes.Buffer
	isa.EncodeAnnots(&again, back)
	if !bytes.Equal(enc, again.Bytes()) {
		c.report(PassEncode, -1, "annotation sidecar is not a codec fixed point: re-encoding the decoded annotations changed the bytes")
	}
}

func (c *checker) compareCode(back *isa.Program) {
	p := c.p
	if len(back.Code) != len(p.Code) {
		c.report(PassEncode, -1, "round trip changed instruction count: %d -> %d", len(p.Code), len(back.Code))
		return
	}
	for pc := range p.Code {
		if p.Code[pc] != back.Code[pc] {
			c.report(PassEncode, pc, "round trip changed instruction: %s -> %s", p.Code[pc], back.Code[pc])
			return
		}
	}
	if back.Entry != p.Entry || back.GlobalWords != p.GlobalWords {
		c.report(PassEncode, -1, "round trip changed header (entry %d->%d, globals %d->%d)",
			p.Entry, back.Entry, p.GlobalWords, back.GlobalWords)
	}
	if len(back.Funcs) != len(p.Funcs) {
		c.report(PassEncode, -1, "round trip changed function count: %d -> %d", len(p.Funcs), len(back.Funcs))
		return
	}
	for i := range p.Funcs {
		if p.Funcs[i] != back.Funcs[i] {
			c.report(PassEncode, p.Funcs[i].Entry, "round trip changed function %q", p.Funcs[i].Name)
		}
	}
}

func (c *checker) compareAnnots(back map[int]*isa.DivergeInfo) {
	p := c.p
	if len(back) != len(p.Annots) {
		c.report(PassEncode, -1, "round trip changed annotation count: %d -> %d", len(p.Annots), len(back))
		return
	}
	for _, pc := range sortedAnnotPCs(p) {
		d, b := p.Annots[pc], back[pc]
		if b == nil {
			c.report(PassEncode, pc, "round trip dropped the annotation")
			continue
		}
		if d.Loop != b.Loop || d.Short != b.Short || d.LoopExitTaken != b.LoopExitTaken || d.LoopHead != b.LoopHead {
			c.report(PassEncode, pc, "round trip changed annotation flags")
			continue
		}
		if len(d.CFMs) != len(b.CFMs) {
			c.report(PassEncode, pc, "round trip changed CFM count: %d -> %d", len(d.CFMs), len(b.CFMs))
			continue
		}
		for i := range d.CFMs {
			want, got := d.CFMs[i], b.CFMs[i]
			// MergeProb is quantized to 1e-6 on the wire.
			if want.Kind != got.Kind || want.Addr != got.Addr || math.Abs(want.MergeProb-got.MergeProb) > 1e-6 {
				c.report(PassEncode, pc, "round trip changed CFM %d: %s -> %s", i, want, got)
			}
		}
	}
}

// annotsValid returns the error of an annotation of p that breaks the
// binary-local rules (isa.Program.ValidateAnnot), or nil when none does.
func annotsValid(p *isa.Program) error {
	for pc := range p.Annots {
		if err := p.ValidateAnnot(pc); err != nil {
			return err
		}
	}
	return nil
}
