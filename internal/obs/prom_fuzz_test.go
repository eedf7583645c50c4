package obs

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzParseExposition checks the exposition validator from both sides.
// Arbitrary bytes must never panic it, whatever its verdict. And an
// exposition built from valid metric names, with the fuzzed string as
// every label value and the fuzzed floats (NaN and ±Inf included) as
// sample values and a bucket bound, must render text the validator
// accepts with exactly the number of samples written. The seeds are the
// fleet daemon's committed scrape golden and a few hand-picked values.
func FuzzParseExposition(f *testing.F) {
	golden, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fleet", "serve_metrics.txt"))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden, "f1", 1.0, 0.5)
	f.Add([]byte("# TYPE h histogram\nh_bucket{le=\"+Inf\"} 1\n"), "a\\b\"c\nd", math.NaN(), math.Inf(1))
	f.Add([]byte("# HELP x X.\n# TYPE x gauge\nx{q=\"p 50\"} -Inf\n"), "} 1 {", math.Inf(-1), -0.0)
	f.Fuzz(func(t *testing.T, raw []byte, label string, v, w float64) {
		ParseExposition(bytes.NewReader(raw))

		// The validator reads lines of up to 1 MiB; escaping at most
		// doubles a value, and the KV sample carries it twice.
		if len(label) > 1<<16 {
			label = label[:1<<16]
		}
		e := NewExposition()
		e.Counter("sos_fuzz_total", "Fuzzed counter.", v)
		e.LabeledGauge("sos_fuzz_gauge", "Fuzzed gauge.", "k", label, w)
		e.GaugeKV("sos_fuzz_kv", "Fuzzed labels.", v, Label{"fleet", label}, Label{"q", label})
		e.Histogram("sos_fuzz_seconds", "Fuzzed histogram.", HistogramSnapshot{
			Count: 2, Sum: w, Bounds: []float64{v}, Counts: []int64{1, 1},
		})
		const written = 3 + 4 // three plain samples; two buckets, _sum, _count
		text := e.String()
		if n, err := ParseExposition(strings.NewReader(text)); err != nil || n != written {
			t.Fatalf("rendered exposition read back as %d samples (wrote %d), err %v:\n%s", n, written, err, text)
		}
	})
}
