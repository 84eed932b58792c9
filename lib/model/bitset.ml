(* Words are OCaml native ints used as 62-bit vectors (the top bit of the
   63-bit int is left unused to keep all arithmetic positive). *)
let bits_per_word = 62

type t = { len : int; words : int array }

let word_count len = (len + bits_per_word - 1) / bits_per_word

let create len =
  if len < 0 then invalid_arg "Bitset.create: negative capacity";
  { len; words = Array.make (word_count len) 0 }

let check t i =
  if i < 0 || i >= t.len then invalid_arg "Bitset: element out of range"

let add t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let remove t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let full len =
  let t = create len in
  for i = 0 to len - 1 do
    add t i
  done;
  t

let singleton len i =
  let t = create len in
  add t i;
  t

let of_list len l =
  let t = create len in
  List.iter (add t) l;
  t

let capacity t = t.len

let copy t = { len = t.len; words = Array.copy t.words }

(* SWAR bit count in constant time, whatever the density. Valid for
   words in [0, 2^62): after the byte-sum multiply the count (at most
   62) sits in the top seven bits, which the 63-bit product keeps. *)
let popcount w =
  let w = w - ((w lsr 1) land 0x1555_5555_5555_5555) in
  let w =
    (w land 0x3333_3333_3333_3333) + ((w lsr 2) land 0x3333_3333_3333_3333)
  in
  let w = (w + (w lsr 4)) land 0x0F0F_0F0F_0F0F_0F0F in
  (w * 0x0101_0101_0101_0101) lsr 56

(* Position of the lowest set bit of a non-zero word: the bits below it
   are [(w land -w) - 1]. *)
let lowest_bit w = popcount ((w land -w) - 1)

let full_word = (1 lsl bits_per_word) - 1

(* Empty and full words, the bulk of a contiguous group's set, are
   counted without the SWAR arithmetic. *)
let rec words_count words k acc =
  if k >= Array.length words then acc
  else
    let w = words.(k) in
    let c =
      if w = 0 then 0 else if w = full_word then bits_per_word else popcount w
    in
    words_count words (k + 1) (acc + c)

let cardinal t = words_count t.words 0 0

(* Module-level recursion instead of [Array.for_all] with a lambda —
   the closure allocated per call showed up in the engine's
   validate-every-placement loop. *)
let rec words_zero words k =
  k >= Array.length words || (words.(k) = 0 && words_zero words (k + 1))

let is_empty t = words_zero t.words 0

(* Word-level scans: each word is read once and only its set bits are
   visited, lowest first, so members still come out in ascending order
   — the order every float sum over a set relies on. *)
let iter f t =
  let words = t.words in
  for k = 0 to Array.length words - 1 do
    let w = ref words.(k) in
    let base = k * bits_per_word in
    while !w <> 0 do
      f (base + lowest_bit !w);
      w := !w land (!w - 1)
    done
  done

let fold f init t =
  let acc = ref init in
  iter (fun i -> acc := f !acc i) t;
  !acc

let to_list t = List.rev (fold (fun acc i -> i :: acc) [] t)

let rec first_member words k =
  if k >= Array.length words then -1
  else if words.(k) = 0 then first_member words (k + 1)
  else (k * bits_per_word) + lowest_bit words.(k)

(* The bits of [i]'s own word below [i] are masked off; the rest of the
   scan skips zero words. Reads the live words, so a caller may add or
   remove members between steps of an ascending walk. *)
let next t i =
  if i < 0 then invalid_arg "Bitset.next: negative start";
  let k = i / bits_per_word in
  if k >= Array.length t.words then -1
  else
    let w = t.words.(k) land (-1 lsl (i mod bits_per_word)) in
    if w <> 0 then (k * bits_per_word) + lowest_bit w
    else first_member t.words (k + 1)

let choose t =
  let i = first_member t.words 0 in
  if i < 0 then raise Not_found else i

(* Sums over a family of sets, one word column at a time. While every
   set seen so far has word [k] empty or full, the 62 positions of word
   [k] have received the same additions in the same order, so one
   accumulator [shared.(k)] stands for all of them. The first partial
   word splits the column: its positions take the shared value and are
   summed one by one from then on. Either way each position's sum adds
   the same terms in increasing set index as a per-position loop. *)
let accumulate ~capacity sets (weights : float array) =
  if Array.length weights <> Array.length sets then
    invalid_arg "Bitset.accumulate: weights length mismatch";
  Array.iter
    (fun t ->
      if t.len <> capacity then
        invalid_arg "Bitset.accumulate: capacity mismatch")
    sets;
  let columns = word_count capacity in
  let sums = Array.make capacity 0.0 in
  let shared = Array.make columns 0.0 in
  let split = Array.make columns false in
  let spread k =
    let base = k * bits_per_word in
    for i = base to Int.min (base + bits_per_word) capacity - 1 do
      sums.(i) <- shared.(k)
    done
  in
  Array.iteri
    (fun j t ->
      let x = weights.(j) in
      for k = 0 to columns - 1 do
        let w = t.words.(k) in
        if w = 0 then ()
        else if w = full_word && not split.(k) then
          shared.(k) <- shared.(k) +. x
        else begin
          if not split.(k) then begin
            spread k;
            split.(k) <- true
          end;
          let base = k * bits_per_word in
          let w = ref w in
          while !w <> 0 do
            let i = base + lowest_bit !w in
            sums.(i) <- sums.(i) +. x;
            w := !w land (!w - 1)
          done
        end
      done)
    sets;
  for k = 0 to columns - 1 do
    if not split.(k) then spread k
  done;
  sums

let check_same_capacity a b =
  if a.len <> b.len then invalid_arg "Bitset: capacity mismatch"

let union a b =
  check_same_capacity a b;
  { len = a.len; words = Array.map2 ( lor ) a.words b.words }

let inter a b =
  check_same_capacity a b;
  { len = a.len; words = Array.map2 ( land ) a.words b.words }

(* Word-level intersection queries, allocation-free (no intermediate
   set) — the engine's strand scans and the healer's degree checks call
   these per task per event. *)
let rec words_disjoint aw bw k =
  k >= Array.length aw || (aw.(k) land bw.(k) = 0 && words_disjoint aw bw (k + 1))

let inter_is_empty a b =
  check_same_capacity a b;
  words_disjoint a.words b.words 0

let rec words_inter_count aw bw k acc =
  if k >= Array.length aw then acc
  else words_inter_count aw bw (k + 1) (acc + popcount (aw.(k) land bw.(k)))

let inter_cardinal a b =
  check_same_capacity a b;
  words_inter_count a.words b.words 0 0

let equal a b = a.len = b.len && a.words = b.words

let subset a b =
  check_same_capacity a b;
  Array.for_all2 (fun wa wb -> wa land lnot wb = 0) a.words b.words

let pp ppf t =
  Format.fprintf ppf "{%a}"
    (Format.pp_print_list
       ~pp_sep:(fun ppf () -> Format.fprintf ppf ", ")
       Format.pp_print_int)
    (to_list t)
