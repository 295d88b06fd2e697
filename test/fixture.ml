(* The fixed 2-4-2 ReLU network the suites share: small enough that a
   bit-blasted SMT query finishes in milliseconds. At input (50, 50) its
   minimal flipping noise is 13 %. *)
let small_qnet () =
  Nn.Qnet.create
    [|
      {
        Nn.Qnet.weights = [| [| 31; -22 |]; [| -13; 41 |]; [| 17; 9 |]; [| -25; 14 |] |];
        bias = [| 55; -31; 12; -7 |];
        act = Nn.Qnet.Relu;
      };
      {
        Nn.Qnet.weights = [| [| 21; -33; 11; -9 |]; [| -20; 31; -12; 10 |] |];
        bias = [| 13; 0 |];
        act = Nn.Qnet.Identity;
      };
    |]
