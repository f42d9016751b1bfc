package rm

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/policy"
	"repro/internal/resource"
	"repro/internal/sim"
	"repro/internal/task"
	"repro/internal/ticks"
)

// This file keeps grant control as it was before the Manager reused
// scratch and consulted the Policy Box through SharesFor: a from-
// scratch recompute over the admitted records that looks the policy
// up with PolicyFor, reads shares from its Ranking map and takes every
// rate from Entry.Frac. TestGrantSelectionMatchesOracle holds the
// Manager to it over random overloaded task sets.

// oracleCoverage counts which correlation paths the oracle took, so
// the test can require that the random sets reach all of them.
type oracleCoverage struct {
	recomputes, fastPath int
	stored, invented     int
	pass2, pass3         int
	ffuDemotions         int
	streamerDemotions    int
	decreases            int
}

type oracleOut struct {
	gs        GrantSet
	stats     OpStats // the recompute's fields; Op and AdmissionChecks are the operation's
	decreased []Grant
}

// oracleRecompute recomputes m's grant set from scratch, given the set
// committed before the operation.
func oracleRecompute(m *Manager, old GrantSet, cov *oracleCoverage) oracleOut {
	cov.recomputes++
	var active []*admitted
	for _, id := range m.TaskIDs() {
		if a := m.tasks[id]; a.state != task.Quiescent {
			active = append(active, a)
		}
	}
	o := oracleOut{gs: GrantSet{}}
	o.stats.Threads = len(active)
	if len(active) > 0 {
		maxSum, streamer, ffu := ticks.FracZero, int64(0), 0
		for _, a := range active {
			maxSum = maxSum.Add(a.list.Max().Frac())
			streamer += a.list.Max().StreamerMBps
			if a.list.Max().NeedsFFU {
				ffu++
			}
		}
		if maxSum.LessOrEqual(m.capacityForGrants()) && m.streamer.Fits(streamer) && ffu <= 1 {
			cov.fastPath++
			o.stats.FastPath = true
			for _, a := range active {
				o.gs[a.id] = Grant{Task: a.id, Level: 0, Entry: a.list.Max()}
			}
		} else {
			members := make([]policy.MemberID, len(active))
			for i, a := range active {
				members[i] = a.member
			}
			pol := m.box.PolicyFor(members)
			if pol.Invented {
				cov.invented++
			} else {
				cov.stored++
			}
			o.stats.PolicyConsulted = true
			o.stats.PolicyInvented = pol.Invented
			o.gs = oracleCorrelate(m, active, pol, &o.stats, cov)
		}
	}
	for _, id := range old.IDs() {
		og := old[id]
		if ng, ok := o.gs[id]; ok && ng.Entry.Frac().Cmp(og.Entry.Frac()) < 0 {
			o.decreased = append(o.decreased, ng)
		}
	}
	cov.decreases += len(o.decreased)
	return o
}

type oracleCand struct {
	a      *admitted
	target ticks.Frac
	above  int
	below  int
	chosen int
}

func oracleCorrelate(m *Manager, active []*admitted, pol policy.Policy, st *OpStats, cov *oracleCoverage) GrantSet {
	n := len(active)
	avail := m.capacityForGrants()
	cands := make([]oracleCand, n)

	st.Passes = 1
	sum := ticks.FracZero
	for i, a := range active {
		share := pol.Shares[a.member]
		c := oracleCand{a: a, target: ticks.FracPercent(int64(share))}
		list := a.list
		c.above, c.below = -1, -1
		for j := range list {
			st.EntriesExamined++
			f := list[j].Frac()
			if f.Cmp(c.target) >= 0 {
				c.above = j
			} else if c.below == -1 {
				c.below = j
			}
		}
		if c.above == -1 {
			c.above = 0
		}
		if c.below == -1 {
			c.below = len(list) - 1
		}
		c.chosen = c.above
		sum = sum.Add(list[c.chosen].Frac())
		cands[i] = c
	}

	if !sum.LessOrEqual(avail) {
		st.Passes = 2
		cov.pass2++
		order := oracleOrder(cands, pol, false)
		for _, i := range order {
			if sum.LessOrEqual(avail) {
				break
			}
			c := &cands[i]
			if c.chosen == c.below {
				continue
			}
			sum = sum.Sub(c.a.list[c.chosen].Frac()).Add(c.a.list[c.below].Frac())
			c.chosen = c.below
			st.EntriesExamined += 2
		}
		for _, i := range order {
			if sum.LessOrEqual(avail) {
				break
			}
			c := &cands[i]
			min := len(c.a.list) - 1
			if c.chosen == min {
				continue
			}
			sum = sum.Sub(c.a.list[c.chosen].Frac()).Add(c.a.list[min].Frac())
			c.chosen = min
			st.EntriesExamined += 2
		}
	}

	sum = oracleEnforceFFU(cands, pol, sum, st, cov)
	sum = oracleEnforceStreamer(m, cands, pol, sum, st, cov)

	if leftover := avail.Sub(sum); leftover.Num > 0 {
		order := oracleOrder(cands, pol, true)
		var streamerSum int64
		ffuHolder := -1
		for i := range cands {
			e := cands[i].a.list[cands[i].chosen]
			streamerSum += e.StreamerMBps
			if e.NeedsFFU && ffuHolder == -1 {
				ffuHolder = i
			}
		}
		promoted := false
		for _, i := range order {
			c := &cands[i]
			for c.chosen > 0 {
				next := c.chosen - 1
				ne := c.a.list[next]
				delta := ne.Frac().Sub(c.a.list[c.chosen].Frac())
				st.EntriesExamined++
				if !sum.Add(delta).LessOrEqual(avail) {
					break
				}
				dStreamer := ne.StreamerMBps - c.a.list[c.chosen].StreamerMBps
				if !m.streamer.Fits(streamerSum + dStreamer) {
					break
				}
				if ne.NeedsFFU && ffuHolder != -1 && ffuHolder != i {
					break
				}
				sum = sum.Add(delta)
				streamerSum += dStreamer
				if ne.NeedsFFU {
					ffuHolder = i
				}
				c.chosen = next
				promoted = true
			}
		}
		if promoted {
			st.Passes = 3
			cov.pass3++
		}
	}

	gs := make(GrantSet, n)
	for _, c := range cands {
		gs[c.a.id] = Grant{Task: c.a.id, Level: c.chosen, Entry: c.a.list[c.chosen]}
	}
	return gs
}

func oracleEnforceFFU(cands []oracleCand, pol policy.Policy, sum ticks.Frac, st *OpStats, cov *oracleCoverage) ticks.Frac {
	var holders []int
	for i := range cands {
		if cands[i].a.list[cands[i].chosen].NeedsFFU {
			holders = append(holders, i)
		}
	}
	if len(holders) <= 1 {
		return sum
	}
	winner := holders[0]
	score := func(i int) (bool, bool, int) {
		c := &cands[i]
		return c.a.list.MinNeedsFFU(),
			pol.Exclusive != policy.NoMember && c.a.member == pol.Exclusive,
			pol.Shares[c.a.member]
	}
	for _, h := range holders[1:] {
		wr, we, ws := score(winner)
		hr, he, hs := score(h)
		switch {
		case hr != wr:
			if hr {
				winner = h
			}
		case he != we:
			if he {
				winner = h
			}
		case hs != ws:
			if hs > ws {
				winner = h
			}
		case cands[h].a.id < cands[winner].a.id:
			winner = h
		}
	}
	for _, h := range holders {
		if h == winner {
			continue
		}
		c := &cands[h]
		k, ok := c.a.list.FirstNonFFU()
		if ok && k > c.chosen {
			sum = sum.Sub(c.a.list[c.chosen].Frac()).Add(c.a.list[k].Frac())
			c.chosen = k
			st.EntriesExamined++
			cov.ffuDemotions++
		}
	}
	return sum
}

func oracleEnforceStreamer(m *Manager, cands []oracleCand, pol policy.Policy, sum ticks.Frac, st *OpStats, cov *oracleCoverage) ticks.Frac {
	var streamerSum int64
	for _, c := range cands {
		streamerSum += c.a.list[c.chosen].StreamerMBps
	}
	if m.streamer.Fits(streamerSum) {
		return sum
	}
	for _, i := range oracleOrder(cands, pol, false) {
		c := &cands[i]
		for !m.streamer.Fits(streamerSum) && c.chosen < len(c.a.list)-1 {
			next := c.chosen + 1
			streamerSum += c.a.list[next].StreamerMBps - c.a.list[c.chosen].StreamerMBps
			sum = sum.Sub(c.a.list[c.chosen].Frac()).Add(c.a.list[next].Frac())
			c.chosen = next
			st.EntriesExamined++
			cov.streamerDemotions++
		}
		if m.streamer.Fits(streamerSum) {
			break
		}
	}
	return sum
}

// oracleOrder sorts candidate indices by policy share (descending if
// desc), equal shares newest first, with a stable library sort rather
// than the Manager's insertion sort.
func oracleOrder(cands []oracleCand, pol policy.Policy, desc bool) []int {
	order := make([]int, len(cands))
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(i, j int) int {
		si, sj := pol.Shares[cands[i].a.member], pol.Shares[cands[j].a.member]
		if si != sj {
			if (si > sj) == desc {
				return -1
			}
			return 1
		}
		if cands[i].a.id > cands[j].a.id {
			return -1
		}
		return 1
	})
	return order
}

// decreaseLog records GrantDecreased calls in order.
type decreaseLog struct {
	NopHooks
	calls []Grant
}

func (h *decreaseLog) GrantDecreased(id task.ID, g Grant) {
	if id != g.Task {
		panic(fmt.Sprintf("GrantDecreased(%d) carries task %d's grant", id, g.Task))
	}
	h.calls = append(h.calls, g)
}

// randomList builds a valid resource list of 1-5 levels: descending
// rates over mixed periods (so fractions reduce differently), monotone
// Streamer demands, and with ffu set an FFU-needing prefix of the
// levels (every level when resident).
func randomList(rng *sim.RNG, ffu, resident bool) task.ResourceList {
	for {
		n := 1 + rng.Intn(5)
		rl := make(task.ResourceList, n)
		permille := 100 + rng.Intn(500)
		mbps := int64(rng.Intn(4)) * 40
		ffuLevels := 0
		if ffu {
			ffuLevels = 1 + rng.Intn(n)
		}
		if resident {
			ffuLevels = n
		}
		for j := range rl {
			period := ticks.Ticks(13_500 * (2 + rng.Intn(200)))
			rl[j] = task.Entry{
				Period:       period,
				CPU:          period * ticks.Ticks(permille) / 1000,
				Fn:           fmt.Sprintf("L%d", j),
				NeedsFFU:     j < ffuLevels,
				StreamerMBps: mbps,
			}
			permille -= 10 + rng.Intn(permille/2+1)
			if permille < 5 {
				permille = 5
			}
			mbps -= int64(rng.Intn(3)) * 20
			if mbps < 0 {
				mbps = 0
			}
		}
		if rl.Validate() == nil {
			return rl
		}
	}
}

// storeRandomPolicy installs a default or a user override for the
// current non-quiescent member set, with random positive shares
// summing to at most 100 and, sometimes, an exclusive member.
func storeRandomPolicy(t *testing.T, rng *sim.RNG, m *Manager) {
	t.Helper()
	var members []policy.MemberID
	for _, id := range m.TaskIDs() {
		if a := m.tasks[id]; a.state != task.Quiescent {
			members = append(members, a.member)
		}
	}
	if len(members) == 0 {
		return
	}
	p := policy.Policy{Shares: policy.Ranking{}}
	for _, mem := range members {
		p.Shares[mem] = 1 + rng.Intn(100/len(members))
	}
	if rng.Intn(2) == 0 {
		p.Exclusive = members[rng.Intn(len(members))]
	}
	var err error
	if rng.Intn(3) == 0 {
		err = m.Box().SetOverride(p)
	} else {
		err = m.Box().SetDefault(p)
	}
	if err != nil {
		t.Fatalf("store policy %v: %v", p, err)
	}
}

// TestGrantSelectionMatchesOracle drives Managers through random
// operation sequences over overloaded task sets — stored and invented
// policies, FFU claimants, Streamer capacity and degradation pressure
// — and after every recompute requires the Manager's committed set,
// its OpStats and its GrantDecreased calls to equal the oracle's.
func TestGrantSelectionMatchesOracle(t *testing.T) {
	var cov oracleCoverage
	for seed := uint64(1); seed <= 200; seed++ {
		rng := sim.NewRNG(seed)
		hooks := &decreaseLog{}
		cfg := Config{Hooks: hooks, InterruptReservePercent: int64(rng.Intn(11))}
		if rng.Intn(2) == 0 {
			cfg.Streamer = resource.Capacity{StreamerMBps: int64(200 + 40*rng.Intn(10))}
		}
		m := New(cfg)
		var ids []task.ID
		names := 0
		for step := 0; step < 60; step++ {
			old := m.Grants()
			gen := m.GrantGeneration()
			hooks.calls = hooks.calls[:0]
			var op string
			switch r := rng.Intn(20); {
			case r < 6 || len(ids) == 0:
				op = "admit"
				names++
				list := randomList(rng, rng.Intn(4) == 0, rng.Intn(12) == 0)
				tk := newTask(fmt.Sprintf("t%d", names%9), list)
				tk.StartQuiescent = rng.Intn(8) == 0
				if id, err := m.RequestAdmittance(tk); err == nil {
					ids = append(ids, id)
				}
			case r < 8:
				op = "remove"
				i := rng.Intn(len(ids))
				if err := m.Remove(ids[i]); err != nil {
					t.Fatal(err)
				}
				ids = append(ids[:i], ids[i+1:]...)
			case r < 11:
				op = "quiesce"
				if err := m.SetQuiescent(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			case r < 14:
				op = "wake"
				if err := m.Wake(ids[rng.Intn(len(ids))]); err != nil {
					t.Fatal(err)
				}
			case r < 15:
				op = "change-list"
				id := ids[rng.Intn(len(ids))]
				_ = m.ChangeResourceList(id, randomList(rng, rng.Intn(4) == 0, false))
			case r < 17:
				op = "pressure"
				m.SetPressure(ticks.Ticks(step), ticks.FracPercent(int64(5*rng.Intn(9))), "test")
			default:
				op = "policy"
				storeRandomPolicy(t, rng, m)
				m.Reevaluate()
			}
			if m.GrantGeneration() == gen {
				continue // refused or a no-op: nothing recomputed
			}
			want := oracleRecompute(m, old, &cov)
			got := m.LastOp()
			want.stats.Op, want.stats.AdmissionChecks = got.Op, got.AdmissionChecks
			where := fmt.Sprintf("seed %d step %d (%s)", seed, step, op)
			if gs := m.Grants(); !gs.Equal(want.gs) {
				t.Fatalf("%s: grant set\n got %v\nwant %v", where, gs, want.gs)
			}
			if got != want.stats {
				t.Fatalf("%s: OpStats\n got %+v\nwant %+v", where, got, want.stats)
			}
			if !slices.Equal(hooks.calls, want.decreased) {
				t.Fatalf("%s: GrantDecreased calls\n got %v\nwant %v", where, hooks.calls, want.decreased)
			}
			gs, committed := m.Committed()
			if !slices.Equal(committed, gs.IDs()) {
				t.Fatalf("%s: committed IDs %v, want the set's ascending IDs %v", where, committed, gs.IDs())
			}
		}
	}
	t.Logf("oracle coverage: %+v", cov)
	for name, n := range map[string]int{
		"stored policies": cov.stored, "invented policies": cov.invented,
		"pass 2": cov.pass2, "pass 3": cov.pass3, "FFU demotions": cov.ffuDemotions,
		"Streamer demotions": cov.streamerDemotions, "grant decreases": cov.decreases,
	} {
		if n < 20 {
			t.Errorf("random sets reached %s only %d times; the oracle comparison covers too little", name, n)
		}
	}
}
