package bench

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// The tape file format the CLIs read and dmpgen writes: one decimal value
// per line. Blank lines and lines starting with '#' are skipped.

// ReadTape parses a tape from r.
func ReadTape(r io.Reader) ([]int64, error) {
	var tape []int64
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		v, err := strconv.ParseInt(line, 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad tape value %q: %w", line, err)
		}
		tape = append(tape, v)
	}
	return tape, sc.Err()
}

// ReadTapeFile parses the tape file at path.
func ReadTapeFile(path string) ([]int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadTape(f)
}

// FormatTape renders a tape in the file format, one value per line.
func FormatTape(tape []int64) []byte {
	var b []byte
	for _, v := range tape {
		b = strconv.AppendInt(b, v, 10)
		b = append(b, '\n')
	}
	return b
}
