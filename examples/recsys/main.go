// Recommender system: the user-based collaborative-filtering workload of
// §III-D.
//
// The example trains a Recommend deployment on a MovieLens-shaped rating
// corpus (NMF per leaf, offline), predicts ratings for unrated {user, item}
// pairs exactly as the paper queries the "empty cells" of the utility
// matrix, evaluates prediction quality against held-out ratings, and ranks
// one user's unrated movies by predicted rating.
//
//	go run ./examples/recsys
package main

import (
	"fmt"
	"log"
	"math"
	"sort"

	"musuite"
)

func main() {
	corpus := musuite.NewRatingCorpus(musuite.RatingCorpusConfig{
		Users: 120, Items: 150, Ratings: 6000, Rank: 5, Seed: 9,
	})
	fmt.Printf("rating corpus: %d users × %d items, %d observed ratings (%.1f%% dense)\n",
		corpus.Users, corpus.Items, len(corpus.Ratings),
		100*float64(len(corpus.Ratings))/float64(corpus.Users*corpus.Items))

	cluster, err := musuite.StartRecommendCluster(musuite.RecommendClusterConfig{
		Corpus: corpus,
		Shards: 4,
		Rank:   6,
		Seed:   17,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	client, err := musuite.DialRecommend(cluster.Addr, nil)
	if err != nil {
		log.Fatal(err)
	}
	defer client.Close()

	// Predict a few unrated pairs, the paper's query pattern.
	fmt.Println("\nsample predictions for unrated {user, item} pairs:")
	for _, p := range corpus.QueryPairs(5, 31) {
		rating, ok, err := client.Predict(p[0], p[1])
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			fmt.Printf("  user %3d, movie %3d → predicted %.2f stars\n", p[0], p[1], rating)
		} else {
			fmt.Printf("  user %3d, movie %3d → no shard can rate this pair\n", p[0], p[1])
		}
	}

	// Quality: the service's predictions on observed cells should track
	// the actual ratings far better than a constant guess.  (Training
	// saw these cells, so this is a sanity fit check, not generalization;
	// matfac's tests cover held-out evaluation.)
	var seModel, seMean, mean float64
	for _, r := range corpus.Ratings {
		mean += r.Value
	}
	mean /= float64(len(corpus.Ratings))
	n := 200
	for _, r := range corpus.Ratings[:n] {
		pred, ok, err := client.Predict(r.User, r.Item)
		if err != nil {
			log.Fatal(err)
		}
		if !ok {
			continue
		}
		seModel += (pred - r.Value) * (pred - r.Value)
		seMean += (mean - r.Value) * (mean - r.Value)
	}
	fmt.Printf("\nfit quality over %d observed ratings:\n", n)
	fmt.Printf("  service RMSE        %.3f stars\n", math.Sqrt(seModel/float64(n)))
	fmt.Printf("  mean-guess RMSE     %.3f stars\n", math.Sqrt(seMean/float64(n)))

	// Recommending items the user has not rated, the extension §III-D
	// proposes: predict every empty cell of user 0's row and rank them.
	type rec struct {
		item   int
		rating float64
	}
	var recs []rec
	for item := 0; item < corpus.Items; item++ {
		if corpus.Rated(0, item) {
			continue
		}
		rating, ok, err := client.Predict(0, item)
		if err != nil {
			log.Fatal(err)
		}
		if ok {
			recs = append(recs, rec{item, rating})
		}
	}
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].rating > recs[j].rating })
	fmt.Println("\ntop-5 unrated movies for user 0, ranked by predicted rating:")
	for i, r := range recs[:min(5, len(recs))] {
		fmt.Printf("  %d. movie %3d — predicted %.2f stars\n", i+1, r.item, r.rating)
	}
}
