package huffman_test

import (
	"fmt"

	"repro/internal/huffman"
)

// The worked example from §3 of the paper: with N[2]=3, N[3]=1, N[5]=4 the
// canonical codewords are 00, 01, 10, 110, 11100, 11101, 11110, 11111 —
// fully determined by the length histogram.
func ExampleCode_Decode() {
	code := &huffman.Code{
		N: []int{0, 0, 3, 1, 0, 4},
		D: []uint32{10, 20, 30, 40, 50, 60, 70, 80},
	}
	code.Prime() // a code assembled by hand builds its encoder here
	var w huffman.BitWriter
	for _, v := range []uint32{40, 10, 80} {
		if err := code.Encode(&w, v); err != nil {
			panic(err)
		}
	}
	r := huffman.NewBitReader(w.Bytes())
	for i := 0; i < 3; i++ {
		v, err := code.Decode(r)
		if err != nil {
			panic(err)
		}
		fmt.Println(v)
	}
	// Output:
	// 40
	// 10
	// 80
}

// Build constructs an optimal canonical code from frequencies; more
// frequent values receive shorter codewords.
func ExampleBuild() {
	code := huffman.Build(map[uint32]uint64{
		7:  1000, // very common
		13: 10,
		99: 1,
	})
	fmt.Println(code.CodeLen(7) <= code.CodeLen(13))
	fmt.Println(code.CodeLen(13) <= code.CodeLen(99))
	// Output:
	// true
	// true
}
