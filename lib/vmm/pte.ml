type t = int

let none = -1
let make ~frame ~perm = (frame lsl 2) lor Perm.code perm
let is_present t = t >= 0
let frame t = t lsr 2
let perm t = Perm.of_code (t land 3)
let allows t access = Perm.code_allows (t land 3) access
let with_perm t perm = (t land lnot 3) lor Perm.code perm
