package system

import (
	"odbscale/internal/odb"
	"odbscale/internal/profile"
)

// addShare appends an instruction share, coalescing runs of the same
// frame so per-chunk share lists stay a handful of entries.
func addShare(shares []profile.Share, k profile.Kind, ph odb.Phase, instr uint64) []profile.Share {
	if instr == 0 {
		return shares
	}
	if n := len(shares); n > 0 && shares[n-1].Kind == k && shares[n-1].Phase == ph {
		shares[n-1].Instr += instr
		return shares
	}
	return append(shares, profile.Share{Kind: k, Phase: ph, Instr: instr})
}
