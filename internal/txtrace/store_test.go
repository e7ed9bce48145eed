package txtrace_test

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/txtrace"
)

// TestStoreRoundTrip checks a campaign's per-point dump store preserves
// insertion order and serves a well-formed /traces payload.
func TestStoreRoundTrip(t *testing.T) {
	st := campaign.NewStore[*txtrace.Dump]("dump")
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}})
	st.Put("W=20,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=20,P=1"}})
	if !reflect.DeepEqual(st.Keys(), []string{"W=10,P=1", "W=20,P=1"}) {
		t.Fatalf("keys = %v", st.Keys())
	}
	if st.Get("W=10,P=1") == nil || st.Get("missing") != nil {
		t.Fatal("Get misbehaves")
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var entries []struct {
		Key  string        `json:"key"`
		Dump *txtrace.Dump `json:"dump"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != "W=10,P=1" || entries[1].Dump.Meta.Label != "W=20,P=1" {
		t.Fatalf("store payload = %+v", entries)
	}
}
