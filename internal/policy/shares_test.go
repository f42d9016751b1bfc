package policy

import (
	"maps"
	"slices"
	"testing"

	"repro/internal/telemetry"
)

// TestEmptyMemberSet covers every way to ask the Box about an empty
// running set: each returns the empty invented policy, none panics,
// and each counts its consult and its invent alike.
func TestEmptyMemberSet(t *testing.T) {
	cases := []struct {
		name                  string
		ask                   func(b *Box) Policy
		wantConsult, wantInvt int64
	}{
		{"Invent(nil)", func(b *Box) Policy { return b.Invent(nil) }, 0, 1},
		{"Invent(empty)", func(b *Box) Policy { return b.Invent([]MemberID{}) }, 0, 1},
		{"PolicyFor(nil)", func(b *Box) Policy { return b.PolicyFor(nil) }, 1, 1},
		{"PolicyFor(empty)", func(b *Box) Policy { return b.PolicyFor([]MemberID{}) }, 1, 1},
		{"SharesFor(nil)", func(b *Box) Policy {
			excl, invented := b.SharesFor(nil, nil)
			return Policy{Shares: Ranking{}, Exclusive: excl, Invented: invented}
		}, 1, 1},
	}
	for _, c := range cases {
		for _, stored := range []bool{false, true} {
			name := c.name
			if stored {
				name += "/stored-box"
			}
			t.Run(name, func(t *testing.T) {
				b := NewBox()
				if stored {
					Table5(b, [4]string{"a", "b", "c", "d"})
				}
				reg := telemetry.NewRegistry()
				b.EnableTelemetry(reg)
				p := c.ask(b)
				if !p.Invented || len(p.Shares) != 0 || p.Exclusive != NoMember {
					t.Errorf("got %+v, want the empty invented policy", p)
				}
				if got := reg.Counter("policy.box.consults").Value(); got != c.wantConsult {
					t.Errorf("consults = %d, want %d", got, c.wantConsult)
				}
				if got := reg.Counter("policy.box.invents").Value(); got != c.wantInvt {
					t.Errorf("invents = %d, want %d", got, c.wantInvt)
				}
			})
		}
	}
}

// TestSharesForMatchesPolicies checks the shares lookup against the
// policies the test stored itself — designer defaults, a user
// override shadowing one, an override with an exclusive member — and
// against the 1/N rule for unmatched sets, in every member order, and
// checks PolicyFor agrees.
func TestSharesForMatchesPolicies(t *testing.T) {
	b := NewBox()
	m := Table5(b, [4]string{"modem", "mpeg", "3d", "audio"})
	e := b.Register("extra")
	override := Policy{Shares: Ranking{m[0]: 30, m[1]: 60}, Exclusive: m[1]}
	if err := b.SetOverride(override); err != nil {
		t.Fatal(err)
	}
	withExtra := Policy{Shares: Ranking{m[2]: 40, e: 40}, Exclusive: e}
	if err := b.SetOverride(withExtra); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name    string
		members []MemberID
		want    Policy
	}{
		{"builtin-pair", []MemberID{m[0], m[2]}, Policy{Shares: Ranking{m[0]: 20, m[2]: 75}}},
		{"builtin-four", m[:], Policy{Shares: Ranking{m[0]: 5, m[1]: 35, m[2]: 20, m[3]: 35}}},
		{"user-shadows-builtin", []MemberID{m[0], m[1]}, override},
		{"user-only", []MemberID{m[2], e}, withExtra},
		{"invented-pair", []MemberID{m[1], m[3]}, Policy{Shares: Ranking{m[1]: 50, m[3]: 50}, Exclusive: m[1], Invented: true}},
		{"invented-three", []MemberID{e, m[3], m[1]}, Policy{Shares: Ranking{e: 33, m[3]: 33, m[1]: 33}, Exclusive: m[1], Invented: true}},
		{"invented-single", []MemberID{e}, Policy{Shares: Ranking{e: 100}, Exclusive: e, Invented: true}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, members := range permutations(c.members) {
				shares := make([]int, len(members))
				excl, invented := b.SharesFor(members, shares)
				for i, mem := range members {
					if shares[i] != c.want.Shares[mem] {
						t.Errorf("%v: member %d share %d, want %d", members, mem, shares[i], c.want.Shares[mem])
					}
				}
				if excl != c.want.Exclusive || invented != c.want.Invented {
					t.Errorf("%v: (exclusive, invented) = (%d, %v), want (%d, %v)",
						members, excl, invented, c.want.Exclusive, c.want.Invented)
				}
				p := b.PolicyFor(members)
				if !maps.Equal(p.Shares, c.want.Shares) || p.Exclusive != c.want.Exclusive || p.Invented != c.want.Invented {
					t.Errorf("%v: PolicyFor = %v, want %v", members, p, c.want)
				}
			}
		})
	}
}

// TestSharesForAllocatesNothing pins the lookup's cost: neither an
// empty Box's invention nor a stored lookup allocates once the Box's
// key scratch has grown.
func TestSharesForAllocatesNothing(t *testing.T) {
	stored := NewBox()
	m := Table5(stored, [4]string{"a", "b", "c", "d"})
	for name, b := range map[string]*Box{"empty": NewBox(), "stored": stored} {
		shares := make([]int, len(m))
		b.SharesFor(m[:], shares)
		if n := testing.AllocsPerRun(100, func() { b.SharesFor(m[:], shares) }); n != 0 {
			t.Errorf("%s box: SharesFor allocates %.0f times per lookup, want 0", name, n)
		}
	}
}

func permutations(ms []MemberID) [][]MemberID {
	if len(ms) <= 1 {
		return [][]MemberID{slices.Clone(ms)}
	}
	var out [][]MemberID
	for i := range ms {
		rest := append(slices.Clone(ms[:i]), ms[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]MemberID{ms[i]}, p...))
		}
	}
	return out
}
