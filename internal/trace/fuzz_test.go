package trace

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadMahimahi: the parser must never panic and every successfully
// parsed trace must validate.
func FuzzReadMahimahi(f *testing.F) {
	var seed bytes.Buffer
	WriteMahimahi(&seed, Constant("c", 3e6, 5, 1))
	f.Add(seed.String(), 1.0)
	f.Add("0\n100\n200\n", 0.5)
	f.Add("# c\n\n5\n", 1.0)
	f.Add("-5\n", 1.0)
	f.Add("9999999999999999999999\n", 1.0)
	f.Fuzz(func(t *testing.T, in string, interval float64) {
		tr, err := ReadMahimahi(strings.NewReader(in), "fuzz", interval)
		if err != nil {
			return
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("parsed trace fails validation: %v", err)
		}
	})
}
