package main

import (
	"math"
	"strings"
	"testing"
)

// TestGateFigureRow pins the smoke gate's limits on figure rows:
// bytes_moved may not grow at all, ns/op may grow to 3× and allocs/op to
// 1.25× the committed value, and a committed zero disables the ns/op or
// allocs/op limit.
func TestGateFigureRow(t *testing.T) {
	committed := benchResult{BytesMoved: 1000, NsPerOp: 100, AllocsPerOp: 40}
	cases := []struct {
		name      string
		committed benchResult
		got       benchResult
		want      string // substring of the error; "" = passes
	}{
		{"equal", committed, committed, ""},
		{"fewer bytes", committed, benchResult{BytesMoved: 999, NsPerOp: 100, AllocsPerOp: 40}, ""},
		{"one more byte", committed, benchResult{BytesMoved: 1001, NsPerOp: 100, AllocsPerOp: 40}, "bytes_moved"},
		{"ns at 3x", committed, benchResult{BytesMoved: 1000, NsPerOp: 300, AllocsPerOp: 40}, ""},
		{"ns past 3x", committed, benchResult{BytesMoved: 1000, NsPerOp: 301, AllocsPerOp: 40}, "ns_per_op"},
		{"allocs at 1.25x", committed, benchResult{BytesMoved: 1000, NsPerOp: 100, AllocsPerOp: 50}, ""},
		{"allocs past 1.25x", committed, benchResult{BytesMoved: 1000, NsPerOp: 100, AllocsPerOp: 50.5}, "allocs_per_op"},
		{"zero ns disables", benchResult{BytesMoved: 1000, AllocsPerOp: 40}, benchResult{BytesMoved: 1000, NsPerOp: 1e12, AllocsPerOp: 40}, ""},
		{"zero allocs disables", benchResult{BytesMoved: 1000, NsPerOp: 100}, benchResult{BytesMoved: 1000, NsPerOp: 100, AllocsPerOp: 1e9}, ""},
		{"zero bytes still gates", benchResult{NsPerOp: 100, AllocsPerOp: 40}, benchResult{BytesMoved: 1, NsPerOp: 100, AllocsPerOp: 40}, "bytes_moved"},
	}
	for _, tc := range cases {
		err := gateFigureRow("row", &tc.committed, tc.got)
		checkGateErr(t, tc.name, err, tc.want)
	}
}

// TestGatePerfRow pins the perf/ row limits: ns/op within 3× (none when
// the committed value is zero) and allocs/op within 1.25× plus half an
// allocation, so a path committed at zero allocations fails on the first
// real one.
func TestGatePerfRow(t *testing.T) {
	cases := []struct {
		name      string
		base, got benchResult
		want      string
	}{
		{"equal", benchResult{NsPerOp: 100, AllocsPerOp: 4}, benchResult{NsPerOp: 100, AllocsPerOp: 4}, ""},
		{"ns at 3x", benchResult{NsPerOp: 100}, benchResult{NsPerOp: 300}, ""},
		{"ns past 3x", benchResult{NsPerOp: 100}, benchResult{NsPerOp: 301}, "ns_per_op"},
		{"zero ns disables", benchResult{}, benchResult{NsPerOp: 1e12}, ""},
		{"allocs at limit", benchResult{NsPerOp: 100, AllocsPerOp: 4}, benchResult{NsPerOp: 100, AllocsPerOp: 5.5}, ""},
		{"allocs past limit", benchResult{NsPerOp: 100, AllocsPerOp: 4}, benchResult{NsPerOp: 100, AllocsPerOp: 5.51}, "allocs_per_op"},
		{"zero allocs, noise", benchResult{NsPerOp: 100}, benchResult{NsPerOp: 100, AllocsPerOp: 0.5}, ""},
		{"zero allocs, one alloc", benchResult{NsPerOp: 100}, benchResult{NsPerOp: 100, AllocsPerOp: 1}, "allocs_per_op"},
	}
	for _, tc := range cases {
		checkGateErr(t, tc.name, gatePerfRow(tc.base, tc.got), tc.want)
	}
}

func checkGateErr(t *testing.T, name string, err error, want string) {
	t.Helper()
	switch {
	case want == "" && err != nil:
		t.Errorf("%s: unexpected failure: %v", name, err)
	case want != "" && err == nil:
		t.Errorf("%s: passed, want a %s failure", name, want)
	case want != "" && !strings.Contains(err.Error(), want):
		t.Errorf("%s: error %q does not name %s", name, err, want)
	}
}

// TestRelErr covers the calibration gate's relative error: zero when the
// values agree (including both zero), relative to the prediction
// otherwise, and relative to the measurement when only the prediction is
// zero.
func TestRelErr(t *testing.T) {
	cases := []struct {
		pred, meas, want float64
	}{
		{0, 0, 0},
		{7, 7, 0},
		{-3, -3, 0},
		{100, 110, 0.1},
		{100, 90, 0.1},
		{-100, -110, 0.1},
		{0, 5, 1},
		{5, 0, 1},
		{0, -5, 1},
	}
	for _, tc := range cases {
		if got := relErr(tc.pred, tc.meas); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("relErr(%v, %v) = %v, want %v", tc.pred, tc.meas, got, tc.want)
		}
	}
}
