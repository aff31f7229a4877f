package isa

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
)

// Binary container format for DISA programs.
//
// The file starts with a fixed header, followed by the code segment (one
// 16-byte record per instruction), the function symbol table, and finally the
// diverge-branch annotation section. All integers are little-endian.

const (
	binMagic   = 0x444d5031 // "DMP1"
	binVersion = 2
)

type binHeader struct {
	Magic       uint32
	Version     uint32
	NumInsts    uint32
	Entry       uint32
	NumFuncs    uint32
	GlobalWords uint32
	NumAnnots   uint32
	Reserved    uint32
}

// WriteTo serialises the program to w in the DMP1 container format: the
// code prefix (EncodeCode) followed by the annotation sidecar
// (EncodeAnnots). A *bytes.Buffer is written into directly; any other
// writer receives the encoding in one Write.
func (p *Program) WriteTo(w io.Writer) (int64, error) {
	buf, direct := w.(*bytes.Buffer)
	if !direct {
		buf = new(bytes.Buffer)
	}
	start := buf.Len()
	if err := p.EncodeCode(buf); err != nil {
		return 0, err
	}
	EncodeAnnots(buf, p.Annots)
	if direct {
		return int64(buf.Len() - start), nil
	}
	n, err := w.Write(buf.Bytes())
	return int64(n), err
}

// EncodeCode appends the container's code prefix to buf: the header (whose
// annotation count is len(p.Annots)), the code segment and the function
// symbol table. With no annotations it is a complete container.
func (p *Program) EncodeCode(buf *bytes.Buffer) error {
	// Room for the header and the instruction records (16 bytes plus a
	// one-byte immediate each), so that the buffer seldom regrows.
	buf.Grow(64 + 17*len(p.Code))
	h := binHeader{
		Magic:       binMagic,
		Version:     binVersion,
		NumInsts:    uint32(len(p.Code)),
		Entry:       uint32(p.Entry),
		NumFuncs:    uint32(len(p.Funcs)),
		GlobalWords: uint32(p.GlobalWords),
		NumAnnots:   uint32(len(p.Annots)),
	}
	if err := binary.Write(buf, binary.LittleEndian, h); err != nil {
		return err
	}
	for _, in := range p.Code {
		writeInst(buf, in)
	}
	for _, f := range p.Funcs {
		writeString(buf, f.Name)
		writeUvarint(buf, uint64(f.Entry))
		writeUvarint(buf, uint64(f.End))
	}
	return nil
}

// EncodeAnnots appends the annotation sidecar to buf, one entry per
// annotated branch in ascending address order. DecodeAnnots reads it back.
func EncodeAnnots(buf *bytes.Buffer, annots map[int]*DivergeInfo) {
	pcs := make([]int, 0, len(annots))
	for pc := range annots {
		pcs = append(pcs, pc)
	}
	sort.Ints(pcs)
	for _, pc := range pcs {
		d := annots[pc]
		writeUvarint(buf, uint64(pc))
		var flags byte
		if d.Loop {
			flags |= 1
		}
		if d.Short {
			flags |= 2
		}
		if d.LoopExitTaken {
			flags |= 4
		}
		buf.WriteByte(flags)
		writeUvarint(buf, uint64(d.LoopHead))
		writeUvarint(buf, uint64(len(d.CFMs)))
		for _, c := range d.CFMs {
			buf.WriteByte(byte(c.Kind))
			writeUvarint(buf, uint64(c.Addr))
			// Round, don't truncate: k/1e6 can fall an ulp below k*1e-6, so
			// truncation would make decode-then-encode drift by one unit,
			// breaking the container's codec fixed-point property.
			writeUvarint(buf, uint64(math.Round(c.MergeProb*1e6)))
		}
	}
}

// DecodeAnnots reads n sidecar entries written by EncodeAnnots. It checks
// the encoding only; annotation legality is Program.Validate's.
func DecodeAnnots(r io.Reader, n int) (map[int]*DivergeInfo, error) {
	return readAnnots(newByteReader(r), n)
}

// ReadProgram parses a DMP1 container from r.
func ReadProgram(r io.Reader) (*Program, error) {
	var h binHeader
	if err := binary.Read(r, binary.LittleEndian, &h); err != nil {
		return nil, fmt.Errorf("isa: reading header: %w", err)
	}
	if h.Magic != binMagic {
		return nil, fmt.Errorf("isa: bad magic %#x", h.Magic)
	}
	if h.Version != binVersion {
		return nil, fmt.Errorf("isa: unsupported version %d", h.Version)
	}
	const maxInsts = 1 << 26
	if h.NumInsts == 0 || h.NumInsts > maxInsts {
		return nil, fmt.Errorf("isa: implausible instruction count %d", h.NumInsts)
	}
	// At most one annotation per instruction; the count also sizes the map
	// before any entry is read.
	if h.NumAnnots > h.NumInsts {
		return nil, fmt.Errorf("isa: %d annotations for %d instructions", h.NumAnnots, h.NumInsts)
	}
	br := newByteReader(r)
	p := &Program{
		Code:        make([]Inst, h.NumInsts),
		Entry:       int(h.Entry),
		GlobalWords: int(h.GlobalWords),
	}
	for i := range p.Code {
		in, err := readInst(br)
		if err != nil {
			return nil, fmt.Errorf("isa: reading inst %d: %w", i, err)
		}
		p.Code[i] = in
	}
	for i := 0; i < int(h.NumFuncs); i++ {
		name, err := readString(br)
		if err != nil {
			return nil, fmt.Errorf("isa: reading func %d: %w", i, err)
		}
		entry, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		end, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		p.Funcs = append(p.Funcs, Func{Name: name, Entry: int(entry), End: int(end)})
	}
	annots, err := readAnnots(br, int(h.NumAnnots))
	if err != nil {
		return nil, err
	}
	p.Annots = annots
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}

func readAnnots(br *byteReader, n int) (map[int]*DivergeInfo, error) {
	if n < 0 {
		return nil, fmt.Errorf("isa: negative annotation count %d", n)
	}
	annots := make(map[int]*DivergeInfo, n)
	for i := 0; i < n; i++ {
		pc, err := readUvarint(br)
		if err != nil {
			return nil, fmt.Errorf("isa: reading annot %d: %w", i, err)
		}
		flags, err := br.ReadByte()
		if err != nil {
			return nil, err
		}
		head, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		ncfm, err := readUvarint(br)
		if err != nil {
			return nil, err
		}
		if ncfm > 64 {
			return nil, fmt.Errorf("isa: implausible CFM count %d", ncfm)
		}
		d := &DivergeInfo{Loop: flags&1 != 0, Short: flags&2 != 0, LoopExitTaken: flags&4 != 0, LoopHead: int(head)}
		for j := uint64(0); j < ncfm; j++ {
			kind, err := br.ReadByte()
			if err != nil {
				return nil, err
			}
			addr, err := readUvarint(br)
			if err != nil {
				return nil, err
			}
			mp, err := readUvarint(br)
			if err != nil {
				return nil, err
			}
			d.CFMs = append(d.CFMs, CFM{Kind: CFMKind(kind), Addr: int(addr), MergeProb: float64(mp) / 1e6})
		}
		annots[int(pc)] = d
	}
	return annots, nil
}

func writeInst(buf *bytes.Buffer, in Inst) {
	var flags byte
	if in.UseImm {
		flags = 1
	}
	rec := [16]byte{0: byte(in.Op), 1: in.Rd, 2: in.Rs1, 3: in.Rs2, 4: flags}
	binary.LittleEndian.PutUint32(rec[8:], uint32(int32(in.Target)))
	buf.Write(rec[:])
	// Imm is written separately as a varint-coded 64-bit value to keep the
	// fixed record small while allowing full-range immediates.
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutVarint(tmp[:], in.Imm)
	buf.Write(tmp[:n])
}

func readInst(br *byteReader) (Inst, error) {
	var rec [16]byte
	if _, err := io.ReadFull(br, rec[:]); err != nil {
		return Inst{}, err
	}
	imm, err := binary.ReadVarint(br)
	if err != nil {
		return Inst{}, err
	}
	in := Inst{
		Op:     Op(rec[0]),
		Rd:     rec[1],
		Rs1:    rec[2],
		Rs2:    rec[3],
		UseImm: rec[4]&1 != 0,
		Target: int(int32(binary.LittleEndian.Uint32(rec[8:]))),
		Imm:    imm,
	}
	if !in.Op.Valid() {
		return Inst{}, fmt.Errorf("invalid opcode %d", rec[0])
	}
	return in, nil
}

func writeString(buf *bytes.Buffer, s string) {
	writeUvarint(buf, uint64(len(s)))
	buf.WriteString(s)
}

func readString(br *byteReader) (string, error) {
	n, err := readUvarint(br)
	if err != nil {
		return "", err
	}
	if n > 1<<16 {
		return "", fmt.Errorf("implausible string length %d", n)
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(br, b); err != nil {
		return "", err
	}
	return string(b), nil
}

func writeUvarint(buf *bytes.Buffer, v uint64) {
	var tmp [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(tmp[:], v)
	buf.Write(tmp[:n])
}

func readUvarint(br *byteReader) (uint64, error) { return binary.ReadUvarint(br) }

// byteReader adapts an io.Reader to io.ByteReader without double-buffering
// when the underlying reader already implements both.
type byteReader struct {
	r io.Reader
	b [1]byte
}

func newByteReader(r io.Reader) *byteReader { return &byteReader{r: r} }

func (br *byteReader) Read(p []byte) (int, error) { return io.ReadFull(br.r, p) }

func (br *byteReader) ReadByte() (byte, error) {
	if rb, ok := br.r.(io.ByteReader); ok {
		return rb.ReadByte()
	}
	_, err := io.ReadFull(br.r, br.b[:])
	return br.b[0], err
}
