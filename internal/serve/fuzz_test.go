package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"vlt/internal/api"
)

// TestSweepLinesAreMarshalledCells pins the sweep wire contract on real
// simulations: every line of the stream, result lines (cold and from
// the cache), typed error lines and the trailer alike, is exactly
// json.Marshal of the api.SweepCell or api.SweepTrailer it decodes to,
// plus a newline, whether the request gives its scales or leaves them
// to the default.
func TestSweepLinesAreMarshalledCells(t *testing.T) {
	s := New(Config{})
	grid := api.SweepRequest{Workloads: []string{"mxm", "multprec"}, Machines: []string{"base", "CMT", "V2-CMP"}}
	scaled := grid
	scaled.Scales = []int{1, 2}
	results, errs := 0, 0
	for _, req := range []api.SweepRequest{grid, scaled} {
		payload, err := json.Marshal(req)
		if err != nil {
			t.Fatal(err)
		}
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sweep", bytes.NewReader(payload)))
		lines := bytes.SplitAfter(rec.Body.Bytes(), []byte("\n"))
		if rec.Code != http.StatusOK || len(lines) != len(req.Cells())+2 || len(lines[len(lines)-1]) != 0 {
			t.Fatalf("%+v: status %d, %d lines: %s", req, rec.Code, len(lines), rec.Body)
		}
		lines = lines[:len(lines)-1]
		for i, line := range lines {
			var v any = new(api.SweepCell)
			if i == len(lines)-1 {
				v = new(api.SweepTrailer)
			}
			if err := json.Unmarshal(line, v); err != nil {
				t.Fatalf("line %d %q: %v", i, line, err)
			}
			enc, err := json.Marshal(v)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(append(enc, '\n'), line) {
				t.Fatalf("line %d is\n%s\nbut json.Marshal of its value is\n%s", i, line, enc)
			}
			if c, ok := v.(*api.SweepCell); ok && c.Error != nil {
				errs++
			} else if ok {
				results++
			}
		}
	}
	if results == 0 || errs == 0 {
		t.Fatalf("%d result lines and %d error lines; the grid must produce both", results, errs)
	}
}

// FuzzSweepLine checks appendSweepLine's splice against the encoder it
// replaces: for any header and any canonical body, the spliced line is
// json.Marshal of the api.SweepCell carrying that body, plus a newline.
// Input that is not JSON stands for a line without a result.
func FuzzSweepLine(f *testing.F) {
	f.Add("mxm", "base", 1, []byte(`{"workload":"mxm","cycles":12,"metrics":{"l2.reads":3}}`))
	f.Add("radix", "V4-CMT", 0, []byte(`{"text":"a < b & c","ok":true,"x":[1.5e-7,null]}`))
	f.Add("", "", -3, []byte(`{"workload":`))
	f.Fuzz(func(t *testing.T, workload, machine string, scale int, raw []byte) {
		line := api.SweepCell{Index: 7, Workload: workload, Machine: machine, Scale: scale}
		var body []byte
		if json.Valid(raw) {
			canon, err := json.Marshal(json.RawMessage(raw))
			if err != nil {
				t.Fatal(err)
			}
			body = append(canon, '\n')
		}
		got, err := appendSweepLine(nil, line, body)
		if err != nil {
			t.Fatal(err)
		}
		line.Result = bytes.TrimSuffix(body, []byte("\n"))
		want, err := json.Marshal(line)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, append(want, '\n')) {
			t.Fatalf("spliced line\n%s\nwant\n%s", got, want)
		}
	})
}
