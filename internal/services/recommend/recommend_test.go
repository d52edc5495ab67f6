package recommend

import (
	"math"
	"strings"
	"testing"

	"musuite/internal/core"
	"musuite/internal/dataset"
	"musuite/internal/rpc"
	"musuite/internal/wire"
)

func testCorpus(t *testing.T) *dataset.RatingCorpus {
	t.Helper()
	return dataset.NewRatingCorpus(dataset.RatingCorpusConfig{
		Users: 80, Items: 100, Ratings: 4000, Rank: 4, Noise: 0.25, Seed: 21,
	})
}

func startTestCluster(t *testing.T, corpus *dataset.RatingCorpus) (*Cluster, *Client) {
	t.Helper()
	cl, err := StartCluster(ClusterConfig{
		Corpus:  corpus,
		Shards:  4,
		Rank:    6,
		Seed:    3,
		MidTier: core.Options{Workers: 2, ResponseThreads: 2},
		Leaf:    core.LeafOptions{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cl.Close)
	client, err := DialClient(cl.Addr, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close() })
	return cl, client
}

func TestCodecs(t *testing.T) {
	u, i, err := DecodePredictRequest(EncodePredictRequest(42, 7))
	if err != nil || u != 42 || i != 7 {
		t.Fatalf("request codec: %d %d %v", u, i, err)
	}
	// A response as the leaf and the mid-tier stream it: the flag, the rating.
	response := func(rating float64, ok bool) []byte {
		var e wire.Encoder
		e.Bool(ok)
		e.Float64(rating)
		return e.Bytes()
	}
	r, ok, err := DecodePredictResponse(response(3.5, true))
	if err != nil || !ok || r != 3.5 {
		t.Fatalf("response codec: %v %v %v", r, ok, err)
	}
	r, ok, err = DecodePredictResponse(response(0, false))
	if err != nil || ok || r != 0 {
		t.Fatalf("no-rating codec: %v %v %v", r, ok, err)
	}
	if _, _, err := DecodePredictRequest(nil); err == nil {
		t.Fatal("empty request accepted")
	}
}

func TestTrainLeafValidation(t *testing.T) {
	if _, err := TrainLeaf(nil, LeafConfig{Users: 0, Items: 5}); err == nil {
		t.Fatal("zero users accepted")
	}
	if _, err := TrainLeaf(nil, LeafConfig{Users: 5, Items: 5}); err == nil {
		t.Fatal("no ratings accepted (NMF needs observations)")
	}
}

func TestLeafPredictBoundsAndKnownness(t *testing.T) {
	corpus := testCorpus(t)
	lm, err := TrainLeaf(corpus.Ratings, LeafConfig{
		Users: corpus.Users, Items: corpus.Items, Rank: 6, Seed: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	// Known pair: in-bounds rating.
	r := corpus.Ratings[0]
	rating, ok := lm.Predict(r.User, r.Item)
	if !ok {
		t.Fatal("known pair not rated")
	}
	if rating < MinRating || rating > MaxRating {
		t.Fatalf("rating %v outside [%v,%v]", rating, MinRating, MaxRating)
	}
	// Out-of-range pair.
	if _, ok := lm.Predict(-1, 0); ok {
		t.Fatal("negative user rated")
	}
	if _, ok := lm.Predict(0, corpus.Items+5); ok {
		t.Fatal("out-of-range item rated")
	}
	// DirectPredict agrees on knownness.
	if _, ok := lm.DirectPredict(r.User, r.Item); !ok {
		t.Fatal("direct predict unknown for known pair")
	}
}

func TestLeafPredictBeatsMeanBaseline(t *testing.T) {
	corpus := testCorpus(t)
	// Hold out the last 10% for evaluation.
	n := len(corpus.Ratings)
	train, test := corpus.Ratings[:n*9/10], corpus.Ratings[n*9/10:]
	lm, err := TrainLeaf(train, LeafConfig{
		Users: corpus.Users, Items: corpus.Items, Rank: 6, Iterations: 80, Seed: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	mean := 0.0
	for _, r := range train {
		mean += r.Value
	}
	mean /= float64(len(train))

	var seModel, seMean float64
	evaluated := 0
	for _, r := range test {
		p, ok := lm.Predict(r.User, r.Item)
		if !ok {
			continue
		}
		evaluated++
		seModel += (p - r.Value) * (p - r.Value)
		seMean += (mean - r.Value) * (mean - r.Value)
	}
	if evaluated < 10 {
		t.Skip("too few evaluable held-out pairs")
	}
	if seModel >= seMean {
		t.Fatalf("neighborhood model (SE=%.2f) not better than mean baseline (SE=%.2f) over %d pairs",
			seModel, seMean, evaluated)
	}
	t.Logf("held-out RMSE: model %.3f, mean-baseline %.3f (%d pairs)",
		math.Sqrt(seModel/float64(evaluated)), math.Sqrt(seMean/float64(evaluated)), evaluated)
}

func TestEndToEndPredictions(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	// The paper queries empty cells only.
	pairs := corpus.QueryPairs(50, 77)
	rated := 0
	for _, p := range pairs {
		rating, ok, err := client.Predict(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			rated++
			if rating < MinRating || rating > MaxRating {
				t.Fatalf("rating %v outside bounds", rating)
			}
		}
	}
	// With 4000 ratings over 80×100, nearly every user and item is known
	// to some shard.
	if rated < len(pairs)*8/10 {
		t.Fatalf("only %d of %d pairs rated", rated, len(pairs))
	}
}

func TestMidTierAveragesLeaves(t *testing.T) {
	corpus := testCorpus(t)
	cl, client := startTestCluster(t, corpus)
	pairs := corpus.QueryPairs(20, 99)
	for _, p := range pairs {
		got, ok, err := client.Predict(p[0], p[1])
		if err != nil {
			t.Fatal(err)
		}
		var sum float64
		var n int
		for _, lm := range cl.Models {
			if r, lok := lm.Predict(p[0], p[1]); lok {
				sum += r
				n++
			}
		}
		if !ok {
			if n != 0 {
				t.Fatalf("mid-tier said no rating but %d leaves rated", n)
			}
			continue
		}
		want := sum / float64(n)
		if math.Abs(got-want) > 1e-6 {
			t.Fatalf("pair %v: got %v want average %v of %d leaves", p, got, want, n)
		}
	}
}

func TestUnknownPairReturnsNoRating(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	_, ok, err := client.Predict(corpus.Users+10, corpus.Items+10)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Fatal("out-of-universe pair rated")
	}
}

func TestUnknownMethodRejected(t *testing.T) {
	corpus := testCorpus(t)
	_, client := startTestCluster(t, corpus)
	if _, err := client.rpc.Call("recommend.train", nil); err == nil || !strings.Contains(err.Error(), "unknown method") {
		t.Fatalf("err=%v", err)
	}
}

// TestReplicaLeavesCountTheirOwnScans: replicas of a shard share one trained
// model, and each books the neighborhood scans it runs in its own counters —
// a leaf that served every Predict shows every scanned row, its idle twin
// none.
func TestReplicaLeavesCountTheirOwnScans(t *testing.T) {
	corpus := testCorpus(t)
	a := Prepare(ClusterConfig{Corpus: corpus, Shards: 2, Rank: 4, Seed: 3})
	var addrs [2]string
	for i := range addrs {
		leaf, err := a.Leaf(0, &core.LeafOptions{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		if addrs[i], err = leaf.Start("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(leaf.Close)
	}
	lm := a.models[0]
	user, item := -1, -1
	for u := 0; u < corpus.Users && user < 0; u++ {
		for i := 0; i < corpus.Items; i++ {
			if lm.canRate(u, i) {
				user, item = u, i
				break
			}
		}
	}
	if user < 0 {
		t.Fatal("shard 0 can rate no pair")
	}
	stats := func(addr string) core.TierStats {
		c, err := rpc.Dial(addr, nil)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		st, err := core.QueryStats(c)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	c, err := rpc.Dial(addrs[0], nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	const calls = 20
	for i := 0; i < calls; i++ {
		if _, err := c.Call(MethodPredict, EncodePredictRequest(user, item)); err != nil {
			t.Fatal(err)
		}
	}
	busy, idle := stats(addrs[0]), stats(addrs[1])
	if want := uint64(calls * lm.users.Len()); busy.Served != calls || busy.KernelPoints != want {
		t.Errorf("serving leaf: served %d, kernel points %d; want %d and %d", busy.Served, busy.KernelPoints, calls, want)
	}
	if idle.Served != 0 || idle.KernelPoints != 0 {
		t.Errorf("idle replica: served %d, kernel points %d; want 0 and 0", idle.Served, idle.KernelPoints)
	}
}
