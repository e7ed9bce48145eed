package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseL3List(t *testing.T) {
	valid := []struct {
		in   string
		want []int
	}{
		{"1,2,4,8", []int{1, 2, 4, 8}},
		{" 16 , 32 ", []int{16, 32}},
		{"4", []int{4}},
	}
	for _, tc := range valid {
		got, err := parseL3List(tc.in)
		if err != nil {
			t.Errorf("parseL3List(%q) = %v, want %v", tc.in, err, tc.want)
			continue
		}
		if !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseL3List(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}

	invalid := []struct {
		in     string
		errHas string
	}{
		{"", "empty"},
		{"   ", "empty"},
		{"1,,4", "entry 2 is empty"},
		{"1,2,", "entry 3 is empty"},
		{"1,x,4", "not an integer"},
		{"1,0,4", "must be positive"},
		{"1,-2", "must be positive"},
		{"1,2,1", "duplicate capacity 1"},
	}
	for _, tc := range invalid {
		got, err := parseL3List(tc.in)
		if err == nil {
			t.Errorf("parseL3List(%q) = %v, want error containing %q", tc.in, got, tc.errHas)
			continue
		}
		if !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("parseL3List(%q) error = %q, want it to mention %q", tc.in, err, tc.errHas)
		}
	}
}

func TestParseArgs(t *testing.T) {
	o, err := parseArgs([]string{"-replay", "odb.trace", "-l3", "2,8", "-p", "1"})
	if err != nil {
		t.Fatal(err)
	}
	want := options{replay: "odb.trace", l3: []int{2, 8}, p: 1}
	if !reflect.DeepEqual(o, want) {
		t.Errorf("parseArgs = %+v, want %+v", o, want)
	}

	invalid := []struct {
		args   []string
		errHas string
	}{
		{nil, "-replay is required"},
		{[]string{"-l3", "1,2", "-p", "4"}, "-replay is required"},
		{[]string{"-replay", ""}, "-replay is required"},
		{[]string{"-replay", "odb.trace", "extra"}, "unexpected arguments"},
		{[]string{"-replay", "odb.trace", "-l3", "1,0"}, "must be positive"},
		{[]string{"-replay", "odb.trace", "-o", "x"}, "not defined"},
	}
	for _, tc := range invalid {
		_, err := parseArgs(tc.args)
		if err == nil || !strings.Contains(err.Error(), tc.errHas) {
			t.Errorf("parseArgs(%q) error = %v, want it to mention %q", tc.args, err, tc.errHas)
		}
	}
}
