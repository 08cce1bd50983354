package main

import (
	"strings"
	"testing"

	"iomodels/internal/workload"
)

func TestParseMix(t *testing.T) {
	for _, tc := range []struct {
		ycsb, mix string
		want      workload.Mix
		err       string // a substring of the error; "" for none
	}{
		{ycsb: "a", want: workload.Mix{Gets: 50, Puts: 50}},
		{ycsb: "b", want: workload.Mix{Gets: 95, Puts: 5}},
		{ycsb: "C", want: workload.Mix{Gets: 100}},
		{ycsb: "f", want: workload.Mix{Gets: 50, RMWs: 50}},
		{want: workload.Mix{Gets: 95, Puts: 5}}, // the default is YCSB B
		{mix: "get=50, put=30,scan=10,upsert=5,delete=3,rmw=2",
			want: workload.Mix{Gets: 50, Puts: 30, Scans: 10, Upserts: 5, Deletes: 3, RMWs: 2, ScanLen: 64}},
		{mix: "put=0,get=1", want: workload.Mix{Gets: 1, ScanLen: 64}},
		{ycsb: "a", mix: "get=1", err: "mutually exclusive"},
		{ycsb: "z", err: `unknown YCSB preset "z"`},
		{mix: "get=1,put", err: `bad mix element "put"`},
		{mix: "get=x", err: `bad weight in "get=x"`},
		{mix: "get=-1", err: `bad weight in "get=-1"`},
		{mix: "get=1,insert=2", err: `unknown op "insert"`},
	} {
		got, err := parseMix(tc.ycsb, tc.mix, 64)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("parseMix(%q, %q): %v", tc.ycsb, tc.mix, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("parseMix(%q, %q) error %v, want one containing %q", tc.ycsb, tc.mix, err, tc.err)
		case tc.err == "" && got != tc.want:
			t.Errorf("parseMix(%q, %q) = %+v, want %+v", tc.ycsb, tc.mix, got, tc.want)
		}
	}
}
