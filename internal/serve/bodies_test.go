package serve

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"

	"dlion/internal/tensor"
)

// predictBody is one raw /predict body and what the server answers it: the
// status, and for a 200 the samples the model is run on.
type predictBody struct {
	name string
	body string
	code int
	want [][]float32
}

// testSample returns a sample of the test spec's 192 features as JSON text
// and as the values that text parses to. Values mix signs, fractions and
// exponent forms, and differ from seed to seed.
func testSample(seed int) (string, []float32) {
	const n = 3 * 8 * 8
	vals := make([]float32, n)
	text := make([]string, n)
	for i := range vals {
		vals[i] = float32((i*7+seed*13)%29)/29 - 0.25
		f := byte('g')
		if i%11 == 5 {
			f = 'e'
		}
		text[i] = strconv.FormatFloat(float64(vals[i]), f, -1, 32)
	}
	return "[" + strings.Join(text, ",") + "]", vals
}

// withFirst returns sample text s with its first number replaced by v.
func withFirst(s, v string) string { return "[" + v + s[strings.IndexByte(s, ','):] }

// nested returns n nested empty arrays.
func nested(n int) string { return strings.Repeat("[", n) + strings.Repeat("]", n) }

// predictBodies is the table of bodies every rule of the /predict body
// contract is pinned by, one case at least per rule: TestPredictBodies holds
// the server to it, and FuzzParsePredict starts from it (its committed seeds
// under testdata/fuzz/FuzzParsePredict are these bodies).
func predictBodies() []predictBody {
	a, av := testSample(1)
	b, bv := testSample(2)
	spaced := strings.ReplaceAll(a, ",", " ,\n\t") // whitespace inside a sample
	// b with its first ten numbers null: after a, they keep a's first ten values.
	parts := strings.Split(b[1:len(b)-1], ",")
	for i := 0; i < 10; i++ {
		parts[i] = "null"
	}
	nulls := "[" + strings.Join(parts, ",") + "]"
	keep := append(append([]float32(nil), av[:10]...), bv[10:]...)
	zeroFirst := append([]float32{0}, av[1:]...)
	const ok, bad = http.StatusOK, http.StatusBadRequest
	return []predictBody{
		{"one-sample", `{"inputs":[` + a + `]}`, ok, [][]float32{av}},
		{"two-samples", `{"inputs":[` + a + `,` + b + `]}`, ok, [][]float32{av, bv}},
		{"whitespace-anywhere", " \t\r\n{ \"inputs\" :\n[ " + spaced + " ,\r" + b + " ] }\n", ok, [][]float32{av, bv}},
		{"unknown-keys-skipped", `{"model":"x\"\\\/\b\f\n\r\té","n":-1.5e+3,"t":true,"f":false,"z":null,` +
			`"o":{"inputs":[[1]],"a":[{}],"b":{"c":[]}},"arr":[[],{"k":[1e999,"s"]},-0],"inputs":[` + a + `]}`,
			ok, [][]float32{av}},
		{"depth-limit-9999-under-unknown-key", `{"deep":` + nested(9999) + `,"inputs":[` + a + `]}`, ok, [][]float32{av}},
		{"depth-limit-10000-under-unknown-key", `{"deep":` + nested(10000) + `,"inputs":[` + a + `]}`, bad, nil},
		{"depth-limit-10001-under-unknown-key", `{"deep":` + nested(10001) + `,"inputs":[` + a + `]}`, bad, nil},
		{"key-escaped", `{"\u0069nputs":[` + a + `]}`, ok, [][]float32{av}},
		{"key-folded", `{"INPUTſ":[` + a + `]}`, ok, [][]float32{av}},
		{"key-folded-escaped", `{"Input\u017f":[` + a + `]}`, ok, [][]float32{av}},
		{"key-not-folded", `{"İnputs":[` + a + `]}`, bad, nil},
		{"key-longer", `{"inputs\u0000":[` + a + `]}`, bad, nil},
		{"key-repeated-last-wins", `{"inputs":[` + a + `,` + a + `],"inputs":[` + b + `]}`, ok, [][]float32{bv}},
		{"key-repeated-null-keeps", `{"inputs":[` + a + `],"inputs":[` + nulls + `]}`, ok, [][]float32{keep}},
		{"key-repeated-null-resets", `{"inputs":[` + a + `],"inputs":null,"inputs":[` + nulls + `]}`,
			ok, [][]float32{append(make([]float32, 10), bv[10:]...)}},
		{"inputs-null", `{"inputs":null}`, bad, nil},
		{"inputs-null-last", `{"inputs":[` + a + `],"inputs":null}`, bad, nil},
		{"inputs-empty", `{"inputs":[]}`, bad, nil},
		{"no-inputs", `{}`, bad, nil},
		{"sample-null", `{"inputs":[` + a + `,null]}`, bad, nil},
		{"sample-short", `{"inputs":[[1,2,3]]}`, bad, nil},
		{"number-null", `{"inputs":[` + withFirst(a, "null") + `]}`, ok, [][]float32{zeroFirst}},
		{"number-minus-zero", `{"inputs":[` + withFirst(a, "-0") + `]}`, ok,
			[][]float32{append([]float32{float32(math.Copysign(0, -1))}, av[1:]...)}},
		{"number-max-float32", `{"inputs":[` + withFirst(a, "3.4028235e38") + `]}`, ok,
			[][]float32{append([]float32{3.4028235e38}, av[1:]...)}},
		{"number-underflow", `{"inputs":[` + withFirst(a, "1e-50") + `]}`, ok, [][]float32{zeroFirst}},
		{"number-overflow", `{"inputs":[` + withFirst(a, "1e39") + `]}`, bad, nil},
		{"number-overflow-negative", `{"inputs":[` + withFirst(a, "-1e39") + `]}`, bad, nil},
		{"number-leading-zero", `{"inputs":[` + withFirst(a, "01") + `]}`, bad, nil},
		{"number-no-int", `{"inputs":[` + withFirst(a, ".5") + `]}`, bad, nil},
		{"number-no-frac", `{"inputs":[` + withFirst(a, "1.") + `]}`, bad, nil},
		{"number-plus", `{"inputs":[` + withFirst(a, "+1") + `]}`, bad, nil},
		{"number-infinity", `{"inputs":[` + withFirst(a, "Infinity") + `]}`, bad, nil},
		{"number-nan", `{"inputs":[` + withFirst(a, "NaN") + `]}`, bad, nil},
		{"number-hex", `{"inputs":[` + withFirst(a, "0x1p3") + `]}`, bad, nil},
		{"number-string", `{"inputs":[` + withFirst(a, `"1"`) + `]}`, bad, nil},
		{"trailing-bytes-ignored", `{"inputs":[` + a + `]} garbage {`, ok, [][]float32{av}},
		{"trailing-value-ignored", `{"inputs":[` + a + `]}{"inputs":[` + b + `]}`, ok, [][]float32{av}},
		{"trailing-comma", `{"inputs":[` + a + `],}`, bad, nil},
		{"truncated", `{"inputs":[` + a + `]`, bad, nil},
		{"inputs-string", `{"inputs":"x"}`, bad, nil},
		{"not-an-object", `[` + a + `]`, bad, nil},
		{"top-level-null", `null`, bad, nil},
		{"empty-body", ``, bad, nil},
		{"not-json", `inputs=1`, bad, nil},
	}
}

// overLimitBody returns a well-formed request padded past maxPredictBody:
// refused whole, although its first value ends well inside the limit.
func overLimitBody() predictBody {
	a, _ := testSample(1)
	body := `{"inputs":[` + a + `]}`
	return predictBody{"over-limit", body + strings.Repeat(" ", maxPredictBody+1-len(body)),
		http.StatusBadRequest, nil}
}

// TestPredictBodies pins what /predict answers each raw body of the table:
// its status and, for a 200, the model input, compared through the answer's
// probabilities against a direct forward of the samples the body holds.
func TestPredictBodies(t *testing.T) {
	s, _, _ := newTestServer(t, Config{MaxBatch: 4})
	spec := testSpec()
	spec.Seed = 1 // the version newTestServer publishes
	model := spec.Build()
	for _, c := range append(predictBodies(), overLimitBody()) {
		t.Run(c.name, func(t *testing.T) {
			rec := httptest.NewRecorder()
			s.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/predict", strings.NewReader(c.body)))
			if rec.Code != c.code {
				t.Fatalf("status %d, want %d: %s", rec.Code, c.code, rec.Body)
			}
			if c.code != http.StatusOK {
				return
			}
			var resp PredictResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatalf("bad response body %q: %v", rec.Body, err)
			}
			if len(resp.Predictions) != len(c.want) {
				t.Fatalf("%d predictions, want %d", len(resp.Predictions), len(c.want))
			}
			for i, in := range c.want {
				x := tensor.New(1, spec.Channels, spec.Height, spec.Width)
				copy(x.Data, in)
				want, _ := softmaxRow(model.Forward(x).Data)
				if !sameBits(resp.Predictions[i].Probs, want) {
					t.Fatalf("sample %d answered %v, a forward of the wanted input gives %v",
						i, resp.Predictions[i].Probs, want)
				}
			}
		})
	}
}
