package main

import (
	"strings"
	"testing"
)

func TestCheckOutputs(t *testing.T) {
	cases := []struct {
		json    bool
		qstats  string
		wantErr bool
	}{
		{false, "", false},
		{true, "", false},
		{false, "-", false},
		{false, "q.json", false},
		{true, "q.json", false},
		{true, "-", true},
	}
	for _, tc := range cases {
		err := checkOutputs(tc.json, tc.qstats)
		if (err != nil) != tc.wantErr {
			t.Errorf("checkOutputs(%v, %q) = %v, want error %v", tc.json, tc.qstats, err, tc.wantErr)
			continue
		}
		if err != nil {
			for _, flag := range []string{"-json", "-qstats"} {
				if !strings.Contains(err.Error(), flag) {
					t.Errorf("checkOutputs(%v, %q) error %q does not name %s", tc.json, tc.qstats, err, flag)
				}
			}
		}
	}
}
