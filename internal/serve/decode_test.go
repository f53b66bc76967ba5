package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"
)

// FuzzParsePredict holds the /predict body parser to encoding/json, its
// oracle: for any body, the parse fails exactly when Decoder.Decode into a
// PredictRequest fails, and otherwise yields the same samples, of the same
// lengths and bit for bit, so the handler's "no inputs" and feature-count
// checks accept exactly what they accepted behind encoding/json. It starts
// from the bodies of predictBodies; the committed seeds under
// testdata/fuzz/FuzzParsePredict are those bodies, one at least per rule of
// the contract.
func FuzzParsePredict(f *testing.F) {
	for _, c := range predictBodies() {
		f.Add([]byte(c.body))
	}
	// Short samples, so that mutations reach the values more often than the
	// 192-feature table's bodies let them.
	for _, b := range []string{
		`{"inputs":[[1,2,3],[4]],"inputs":[[null,null,null,null],null,[5,null]],"INPUTS":[[],[null,7]]}`,
		`{"a":[{"b":[1,{"c":"\u00e9\ud83d\ude00\ud800x"}]}],"inputs":[[-0.5e-3,1E+2,null]]}`,
		`{"\u0049nput\u0053":[[1.5]],"inputs":[[2,3]],"inputs":[[null]]}`,
	} {
		f.Add([]byte(b))
	}
	var p parser
	var samples [][]float32
	f.Fuzz(func(t *testing.T, body []byte) {
		var req PredictRequest
		want := json.NewDecoder(bytes.NewReader(body)).Decode(&req)
		var err error
		samples, err = p.parse(body, samples)
		if (err == nil) != (want == nil) {
			t.Fatalf("parse error %v, encoding/json error %v", err, want)
		}
		if err != nil {
			return
		}
		if len(samples) != len(req.Inputs) {
			t.Fatalf("%d samples, encoding/json decodes %d", len(samples), len(req.Inputs))
		}
		for i, in := range req.Inputs {
			if len(samples[i]) != len(in) {
				t.Fatalf("sample %d: %d values, encoding/json decodes %d", i, len(samples[i]), len(in))
			}
			for j := range in {
				if math.Float32bits(samples[i][j]) != math.Float32bits(in[j]) {
					t.Fatalf("sample %d value %d: %v, encoding/json decodes %v", i, j, samples[i][j], in[j])
				}
			}
		}
	})
}

// A warmed parser allocates nothing: the samples of a 256-feature body land
// in the floats the previous parse left.
func TestParsePredictDoesNotAllocate(t *testing.T) {
	in := make([]float32, 256)
	for i := range in {
		in[i] = float32(i%37)/37 - 0.5
	}
	body, err := json.Marshal(PredictRequest{Inputs: [][]float32{in}})
	if err != nil {
		t.Fatal(err)
	}
	var p parser
	var samples [][]float32
	allocs := testing.AllocsPerRun(100, func() {
		if samples, err = p.parse(body, samples); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("%v allocations per parse, want 0", allocs)
	}
	if len(samples) != 1 || !sameBits(samples[0], in) {
		t.Fatalf("parsed %v, want %v", samples, in)
	}
}
