package optics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"
)

func approx(got, want, tol float64) bool { return math.Abs(got-want) <= tol }

func TestDBRoundTrip(t *testing.T) {
	f := func(a uint16) bool {
		ratio := 1e-6 + float64(a) // avoid zero
		return approx(FromDB(DB(ratio)), ratio, ratio*1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDBKnownValues(t *testing.T) {
	if got := DB(2); !approx(got, 3.0103, 1e-3) {
		t.Errorf("DB(2) = %g, want ≈3.01", got)
	}
	if got := DB(10); !approx(got, 10, 1e-9) {
		t.Errorf("DB(10) = %g, want 10", got)
	}
	if got := DB(1); !approx(got, 0, 1e-12) {
		t.Errorf("DB(1) = %g, want 0", got)
	}
}

func TestDBmKnownValues(t *testing.T) {
	if got := DBm(1e-3); !approx(got, 0, 1e-9) {
		t.Errorf("DBm(1mW) = %g, want 0", got)
	}
	if got := DBm(1); !approx(got, 30, 1e-9) {
		t.Errorf("DBm(1W) = %g, want 30", got)
	}
	if got := FromDBm(-10); !approx(got, 1e-4, 1e-12) {
		t.Errorf("FromDBm(-10) = %g, want 0.1mW", got)
	}
}

// TestSplitterPaperNumber: the paper quotes ≤13.6 dB for 1:16 splitting;
// the ideal part is 12.04 dB, so the excess is ≈1.56 dB.
func TestSplitterPaperNumber(t *testing.T) {
	s := Splitter{Ways: 16, ExcessLossDB: 1.56}
	if got := s.LossDB(); !approx(got, 13.6, 0.05) {
		t.Errorf("1:16 splitter loss = %g dB, want ≈13.6", got)
	}
}

func TestSplitterIdealLoss(t *testing.T) {
	s := Splitter{Ways: 64}
	if got := s.LossDB(); !approx(got, 18.06, 0.01) {
		t.Errorf("1:64 ideal loss = %g dB, want ≈18.06", got)
	}
}

func TestSplitterZeroWays(t *testing.T) {
	s := Splitter{Ways: 0}
	if !math.IsInf(s.LossDB(), 1) {
		t.Error("0-way splitter should have infinite loss")
	}
}

func TestBudgetTotalLoss(t *testing.T) {
	b := Budget{
		LaserPowerW:              1,
		Splitters:                []Splitter{{Ways: 2}, {Ways: 2}},
		AttenuationDB:            3,
		ModulatorInsertionLossDB: 3,
		ConnectorLossDB:          1,
	}
	want := DB(2) + DB(2) + 3 + 3 + 1
	if got := b.TotalLossDB(); !approx(got, want, 1e-9) {
		t.Errorf("total loss = %g dB, want %g", got, want)
	}
}

func TestBudgetReceivedPower(t *testing.T) {
	b := Budget{LaserPowerW: 1e-3, AttenuationDB: 10}
	if got := b.ReceivedPowerW(); !approx(got, 1e-4, 1e-12) {
		t.Errorf("received = %g W, want 0.1 mW", got)
	}
}

// TestPaperBudgetCloses: a 1 W mode-locked laser through the paper's
// 1:64 × 1:20 distribution must still deliver ≥25 µW to each receiver —
// this is the feasibility claim behind the external-laser scheme.
func TestPaperBudgetCloses(t *testing.T) {
	b := PaperBudget(1.0, 3.0)
	if err := b.Check(25e-6, 0); err != nil {
		t.Errorf("paper budget does not close: %v", err)
	}
	// And each receiver should get tens to hundreds of µW, not watts.
	rx := b.ReceivedPowerW()
	if rx < 25e-6 || rx > 1e-3 {
		t.Errorf("received power %g W implausible", rx)
	}
}

func TestBudgetCheckFails(t *testing.T) {
	b := PaperBudget(1e-3, 3.0) // 1 mW laser is far too weak for 1280 links
	err := b.Check(25e-6, 0)
	if err == nil {
		t.Fatal("weak budget unexpectedly closed")
	}
	if !errors.Is(err, ErrBudgetNegative) {
		t.Errorf("error %v does not wrap ErrBudgetNegative", err)
	}
}

func TestMarginDB(t *testing.T) {
	b := Budget{LaserPowerW: 1e-3, AttenuationDB: 10} // 0.1 mW received
	if got := b.MarginDB(1e-5); !approx(got, 10, 1e-6) {
		t.Errorf("margin = %g dB, want 10", got)
	}
}

func TestBERFromQKnown(t *testing.T) {
	// Q=7.03 ↔ BER 1e-12 is the classic receiver design point.
	got := BERFromQ(7.034)
	if got > 2e-12 || got < 5e-13 {
		t.Errorf("BER(Q=7.034) = %g, want ≈1e-12", got)
	}
	if got := BERFromQ(0); !approx(got, 0.5, 1e-9) {
		t.Errorf("BER(Q=0) = %g, want 0.5", got)
	}
}

func TestQFromBERInvertsBERFromQ(t *testing.T) {
	for _, q := range []float64{1, 3, 6, 7.03, 8} {
		ber := BERFromQ(q)
		back := QFromBER(ber)
		if !approx(back, q, 1e-6) {
			t.Errorf("QFromBER(BERFromQ(%g)) = %g", q, back)
		}
	}
}

func TestQFromBERTarget(t *testing.T) {
	q := QFromBER(1e-12)
	if !approx(q, 7.03, 0.01) {
		t.Errorf("Q for BER 1e-12 = %g, want ≈7.03", q)
	}
}

// TestBERAtMargin: zero margin is the reference BER, eroded margin is
// worse, and the once-inverted reference Q gives exactly the float64 a
// fresh bisection gives at every margin.
func TestBERAtMargin(t *testing.T) {
	if got := BERAtMargin(0); got < 0.99e-12 || got > 1.01e-12 {
		t.Errorf("BER at zero margin = %g, want ≈%g", got, RefBER)
	}
	prev := 0.0
	for m := 10.0; m >= -30; m -= 0.25 {
		got := BERAtMargin(m)
		if want := BERFromQ(QFromBER(RefBER) * FromDB(m)); got != want {
			t.Errorf("BERAtMargin(%g) = %v, bisection gives %v", m, got, want)
		}
		if got < prev {
			t.Errorf("BER fell from %g to %g as margin eroded to %g dB", prev, got, m)
		}
		prev = got
	}
}

func TestBERMonotoneInQ(t *testing.T) {
	f := func(a, b uint8) bool {
		qa, qb := float64(a)/16, float64(b)/16
		if qa > qb {
			qa, qb = qb, qa
		}
		return BERFromQ(qa) >= BERFromQ(qb)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSensitivityCalibration(t *testing.T) {
	// At the reference point the sensitivity must equal the reference.
	got := SensitivityW(1e-12, 10, 10, 25e-6)
	if !approx(got, 25e-6, 1e-10) {
		t.Errorf("sensitivity at reference = %g, want 25µW", got)
	}
	// Half the rate needs half the power (thermal-noise-limited).
	got = SensitivityW(1e-12, 5, 10, 25e-6)
	if !approx(got, 12.5e-6, 1e-10) {
		t.Errorf("sensitivity @5G = %g, want 12.5µW", got)
	}
}

func TestSensitivityLoosensWithBER(t *testing.T) {
	tight := SensitivityW(1e-15, 10, 10, 25e-6)
	loose := SensitivityW(1e-9, 10, 10, 25e-6)
	if tight <= loose {
		t.Errorf("sensitivity for BER 1e-15 (%g) should exceed 1e-9 (%g)", tight, loose)
	}
}

// TestLaserCapacityPaperClaim: the paper says a typical mode-locked laser
// supports hundreds to thousands of links at 25 µW each; the 64-rack
// system needs 1280.
func TestLaserCapacityPaperClaim(t *testing.T) {
	// 500 mW laser, 10 dB of excess path loss beyond ideal splitting.
	n := LaserCapacity(0.5, 10, 25e-6)
	if n < 1280 {
		t.Errorf("laser supports %d links, want ≥1280 for the 64-rack system", n)
	}
}

func TestLaserCapacityDegenerate(t *testing.T) {
	if LaserCapacity(0, 0, 25e-6) != 0 {
		t.Error("zero-power laser should support 0 links")
	}
	if LaserCapacity(1, 0, 0) != 0 {
		t.Error("zero sensitivity should yield 0, not infinity")
	}
}
