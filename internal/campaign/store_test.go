package campaign

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"odbscale/internal/qstats"
	"odbscale/internal/txtrace"
)

// TestStore checks insertion order (a replaced key keeps its place),
// Get on a missing key, and the live payload shape: an indented array of
// {"key": point, <field>: payload} that decodes back to the payloads.
func TestStore(t *testing.T) {
	st := NewStore[*txtrace.Dump]("dump")
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}})
	st.Put("W=2,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=2,P=1"}})
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1", Warehouses: 10}})
	if got := st.Keys(); !reflect.DeepEqual(got, []string{"W=10,P=1", "W=2,P=1"}) {
		t.Fatalf("keys = %v", got)
	}
	if st.Get("W=10,P=1").Meta.Warehouses != 10 || st.Get("missing") != nil {
		t.Fatal("Get misbehaves")
	}
	var buf bytes.Buffer
	if err := st.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("\n  \"key\": \"W=10,P=1\",\n  \"dump\": {")) {
		t.Fatalf("payload not an indented key/dump array:\n%s", buf.String())
	}
	var entries []struct {
		Key  string        `json:"key"`
		Dump *txtrace.Dump `json:"dump"`
	}
	if err := json.Unmarshal(buf.Bytes(), &entries); err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 || entries[0].Key != "W=10,P=1" || entries[1].Dump.Meta.Label != "W=2,P=1" {
		t.Fatalf("store payload = %+v", entries)
	}

	empty := NewStore[*qstats.Report]("report")
	buf.Reset()
	if err := empty.WriteJSON(&buf); err != nil || buf.String() != "[]\n" {
		t.Fatalf("empty store payload = %q (err %v), want []", buf.String(), err)
	}
}
