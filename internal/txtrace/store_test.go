package txtrace_test

import (
	"reflect"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/txtrace"
)

// TestStoreRoundTrip checks a campaign's per-point dump store preserves
// insertion order and returns each dump it was given.
func TestStoreRoundTrip(t *testing.T) {
	st := campaign.NewStore[*txtrace.Dump]()
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}})
	st.Put("W=20,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=20,P=1"}})
	if !reflect.DeepEqual(st.Keys(), []string{"W=10,P=1", "W=20,P=1"}) {
		t.Fatalf("keys = %v", st.Keys())
	}
	if st.Get("W=20,P=1").Meta.Label != "W=20,P=1" || st.Get("missing") != nil {
		t.Fatal("Get misbehaves")
	}
}
