package campaign

import (
	"reflect"
	"testing"

	"odbscale/internal/txtrace"
)

// TestStore checks insertion order (a replaced key keeps its place) and
// Get on a missing key.
func TestStore(t *testing.T) {
	st := NewStore[*txtrace.Dump]()
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1"}})
	st.Put("W=2,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=2,P=1"}})
	st.Put("W=10,P=1", &txtrace.Dump{Meta: txtrace.Meta{Label: "W=10,P=1", Warehouses: 10}})
	if got := st.Keys(); !reflect.DeepEqual(got, []string{"W=10,P=1", "W=2,P=1"}) {
		t.Fatalf("keys = %v", got)
	}
	if st.Get("W=10,P=1").Meta.Warehouses != 10 || st.Get("missing") != nil {
		t.Fatal("Get misbehaves")
	}
}
