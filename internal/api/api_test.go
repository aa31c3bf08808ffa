package api

import "testing"

// TestRunRequestCell pins the cell names carried in error envelopes:
// every option that changes the cell appears, so sweep variants that
// differ only in lanes or threads stay distinguishable.
func TestRunRequestCell(t *testing.T) {
	cases := []struct {
		req  RunRequest
		want string
	}{
		{RunRequest{Workload: "mxm", Machine: "base"}, "mxm/base"},
		{RunRequest{Workload: "mxm", Machine: "base", Scale: 1}, "mxm/base"},
		{RunRequest{Workload: "mxm", Machine: "base", Scale: 2}, "mxm/base@x2"},
		{RunRequest{Workload: "mxm", Machine: "base", Lanes: 4}, "mxm/base,lanes=4"},
		{RunRequest{Workload: "sage", Machine: "V4-CMT", Threads: 2}, "sage/V4-CMT,threads=2"},
		{RunRequest{Workload: "mpenc", Machine: "V4-CMT", Scale: 3, Lanes: 16, Threads: 4},
			"mpenc/V4-CMT@x3,lanes=16,threads=4"},
	}
	for _, c := range cases {
		if got := c.req.Cell(); got != c.want {
			t.Errorf("%+v.Cell() = %q, want %q", c.req, got, c.want)
		}
	}
}
