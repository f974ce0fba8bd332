package logcore

// VictimPolicy selects the cleaner's segment-choice heuristic.
type VictimPolicy int

const (
	// VictimGreedy picks the segment with the most invalid blocks.
	VictimGreedy VictimPolicy = iota
	// VictimCostBenefit weighs reclaimable space by block age (the classic
	// LFS benefit/cost heuristic): older, colder segments win ties, which
	// segregates cold data and reduces long-run write amplification. With
	// snapshots present it also tends to co-locate cold, pinned data — the
	// goal of the paper's §5.4.2.
	VictimCostBenefit
)

func (p VictimPolicy) String() string {
	if p == VictimCostBenefit {
		return "cost-benefit"
	}
	return "greedy"
}

// VictimScore rates a candidate segment with the given invalid and valid
// block counts, whose newest block has sequence segSeq when the log is at
// curSeq; higher is better.
func VictimScore(policy VictimPolicy, invalid, valid int, curSeq, segSeq uint64) float64 {
	switch policy {
	case VictimCostBenefit:
		u := float64(valid) / float64(valid+invalid)
		age := float64(curSeq - segSeq)
		return (1 - u) * age / (1 + u)
	default:
		return float64(invalid)
	}
}
