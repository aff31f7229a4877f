package bench

import (
	"reflect"
	"strings"
	"testing"
)

// TestTapeRoundTrip: a formatted tape reads back unchanged, and the reader
// skips blank lines and '#' comments, keeps negative values, and names a bad
// value.
func TestTapeRoundTrip(t *testing.T) {
	tape := []int64{0, 1, -1, 42, -9223372036854775808, 9223372036854775807}
	got, err := ReadTape(strings.NewReader(string(FormatTape(tape))))
	if err != nil || !reflect.DeepEqual(got, tape) {
		t.Fatalf("round trip = %v, %v; want %v", got, err, tape)
	}

	got, err = ReadTape(strings.NewReader("# header\n\n  7 \n-3\n\t\n# -5\n11\n"))
	if want := []int64{7, -3, 11}; err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("commented tape = %v, %v; want %v", got, err, want)
	}

	if _, err := ReadTape(strings.NewReader("1\nx2\n")); err == nil || !strings.Contains(err.Error(), `bad tape value "x2"`) {
		t.Fatalf("bad value err = %v", err)
	}
	if got, err := ReadTape(strings.NewReader("")); err != nil || len(got) != 0 {
		t.Fatalf("empty tape = %v, %v", got, err)
	}
}
