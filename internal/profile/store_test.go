package profile_test

import (
	"testing"

	"odbscale/internal/campaign"
	"odbscale/internal/cpu"
	"odbscale/internal/odb"
	"odbscale/internal/profile"
)

func storeProfile(cyclesA, cyclesB float64) *profile.Profile {
	c := profile.NewCollector()
	c.SetMeta(profile.Meta{Label: "sample", Scale: 1, Stall: cpu.Table3Costs(), OtherCPI: 0.35})
	c.AddChunk(profile.User, []profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseBTree, Instr: 1000}}, 1000, cyclesA, cpu.Events{L2Miss: 8, L3Miss: 4, BusLatency: 500})
	c.AddChunk(profile.OS, []profile.Share{{Kind: profile.KindOf(odb.NewOrder), Phase: odb.PhaseLogCommit, Instr: 500}}, 500, cyclesB, cpu.Events{Mispred: 2})
	c.Finalize(1.5, 10)
	return c.Profile()
}

// TestStore checks a campaign's per-point profile store keeps insertion
// order and returns nil for a point it does not hold.
func TestStore(t *testing.T) {
	s := campaign.NewStore[*profile.Profile]()
	s.Put("W=10,P=1", storeProfile(5000, 1200))
	s.Put("W=2,P=1", storeProfile(3000, 800))
	keys := s.Keys()
	if len(keys) != 2 || keys[0] != "W=10,P=1" {
		t.Errorf("keys = %v", keys)
	}
	if s.Get("W=2,P=1") == nil || s.Get("missing") != nil {
		t.Error("Get misbehaves")
	}
}
