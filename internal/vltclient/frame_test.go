package vltclient

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"

	"vlt/internal/api"
)

// TestSweepCutLineIsTruncation: a line is complete only with its
// newline. A final line cut before it is ErrTruncated even when the
// bytes that arrived parse, and the callback never sees it as a cell.
func TestSweepCutLineIsTruncation(t *testing.T) {
	for name, tail := range map[string]string{
		"cell":    `{"index":1,"workload":"fir","machine":"vec","result":{"mips":2}}`,
		"trailer": `{"done":true,"cells":2,"errors":0}`,
		"partial": `{"index":1,"workload":"fir","machine":"vec","result":{"mi`,
	} {
		t.Run(name, func(t *testing.T) {
			srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
				w.Header().Set("Content-Type", "application/x-ndjson")
				fmt.Fprint(w, `{"index":0,"workload":"fir","machine":"cmp","result":{"mips":1}}`+"\n"+tail)
			}))
			defer srv.Close()
			var seen []api.SweepCell
			_, err := New(fastCfg(srv.URL)).Sweep(context.Background(), api.SweepRequest{
				Workloads: []string{"fir"}, Machines: []string{"cmp", "vec"},
			}, func(cell api.SweepCell) error { seen = append(seen, cell); return nil })
			if !errors.Is(err, ErrTruncated) {
				t.Fatalf("error = %v, want ErrTruncated", err)
			}
			if len(seen) != 1 || seen[0].Index != 0 {
				t.Fatalf("callback saw %+v, want only cell 0", seen)
			}
		})
	}
}

// TestSweepBodiesArriveVerbatim: the header scan stops at the top-level
// "result" member, so a "result" or "done" inside a header string, a
// nested "result" key, a nested "done" and a `,"result":` inside a body
// string all leave the body byte for byte as sent, and the header
// fields decode as encoding/json decodes them.
func TestSweepBodiesArriveVerbatim(t *testing.T) {
	bodies := []string{
		`{"note":"a,\"result\":{\"x\":1}","done":true}`,
		`{"result":{"result":[1,2]},"metrics":{"done":false,"cells":3}}`,
		`[{"done":true},"\\",",\"result\":"]`,
		`"just a string"`,
		`null`,
	}
	workload := `fir","result":{"done":true},"x":"`
	var lines []string
	for i, b := range bodies {
		lines = append(lines, fmt.Sprintf(`{"index":%d,"workload":%q,"machine":"cmp","result":%s}`, i, workload, b))
	}
	srv, _ := ndjsonServer(append(lines, `{"done":true,"cells":5,"errors":0}`)...)
	defer srv.Close()

	var cells []api.SweepCell
	trailer, err := New(fastCfg(srv.URL)).Sweep(context.Background(), api.SweepRequest{
		Workloads: []string{"fir"}, Machines: []string{"cmp"},
	}, func(cell api.SweepCell) error { cells = append(cells, cell); return nil })
	if err != nil || trailer.Cells != 5 {
		t.Fatalf("Sweep = %+v, %v", trailer, err)
	}
	if len(cells) != len(bodies) {
		t.Fatalf("got %d cells, want %d", len(cells), len(bodies))
	}
	for i, c := range cells {
		if string(c.Result) != bodies[i] || c.Index != i || c.Workload != workload || c.Machine != "cmp" {
			t.Errorf("cell %d = %+v (result %s), want body %s", i, c, c.Result, bodies[i])
		}
	}
}

// TestFrameLineRefusesBadLines: a "result" member with no value and a
// malformed header before a well-formed body are both errors, not cells.
func TestFrameLineRefusesBadLines(t *testing.T) {
	for _, line := range []string{
		`{"index":0,"workload":"fir","result":}`,
		`{"index":0,"workload":"fir","result": }`,
		`{"index":0x,"workload":"fir","result":{"mips":1}}`,
		`{"index":0,"workload":fir,"result":{"mips":1}}`,
	} {
		if l, err := frameLine([]byte(line)); err == nil {
			t.Errorf("frameLine(%s) = %+v, want an error", line, l)
		}
	}
}

// FuzzSweepFrame holds the header-only framing to encoding/json: for
// any header strings, scale and canonical body, framing a line that
// json.Marshal wrote gives the api.SweepCell that json.Unmarshal of the
// whole line gives, with Result byte-identical, and leaves the line as
// it was. The scan must find the member, not fall back to the
// whole-line decode. Input that is not JSON stands for a line with an
// error and no body, so the whole-line path is covered too.
func FuzzSweepFrame(f *testing.F) {
	f.Add("mxm", "base", 1, []byte(`{"workload":"mxm","cycles":12,"metrics":{"l2.reads":3}}`))
	f.Add(`a","result":{"done":true},"b":"`, "V4-CMT", 0, []byte(`{"s":",\"result\":1","done":true}`))
	f.Add("", "", -3, []byte(`{"workload":`))
	f.Fuzz(func(t *testing.T, workload, machine string, scale int, raw []byte) {
		cell := api.SweepCell{Index: 3, Workload: workload, Machine: machine, Scale: scale}
		if json.Valid(raw) {
			canon, err := json.Marshal(json.RawMessage(raw))
			if err != nil {
				t.Fatal(err)
			}
			cell.Result = canon
		} else {
			cell.Error = &api.Error{Code: api.CodeSimFailed, Message: workload, Cell: machine}
		}
		line, err := json.Marshal(cell)
		if err != nil {
			t.Fatal(err)
		}
		var want api.SweepCell
		if err := json.Unmarshal(line, &want); err != nil {
			t.Fatal(err)
		}
		if cell.Result != nil {
			// The member's comma closes the header alone.
			head := cell
			head.Result = nil
			h, err := json.Marshal(head)
			if err != nil {
				t.Fatal(err)
			}
			if got := resultMember(line); got != len(h)-1 {
				t.Fatalf("resultMember(%s) = %d, want %d", line, got, len(h)-1)
			}
		}
		sent := bytes.Clone(line)
		got, err := frameLine(line)
		if err != nil {
			t.Fatalf("frameLine(%s): %v", line, err)
		}
		if !bytes.Equal(line, sent) {
			t.Fatalf("frameLine changed its line:\n%s\nwant\n%s", line, sent)
		}
		if got.Done != nil || !bytes.Equal(got.Result, want.Result) || !reflect.DeepEqual(got.SweepCell, want) {
			t.Fatalf("frameLine(%s) = %+v (result %s), want %+v (result %s)", line, got, got.Result, want, want.Result)
		}
	})
}
